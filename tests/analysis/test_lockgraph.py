"""Static lock-order analyzer: synthetic trees plus the real one."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.concurrency import analyze_tree
from repro.analysis.lint.engine import Allowlist, AllowlistEntry

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def write_tree(tmp_path: Path, files: dict) -> Path:
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    for name, source in files.items():
        (root / name).write_text(source)
    return root


# ----------------------------------------------------------------------
# lock registration
# ----------------------------------------------------------------------
def test_registers_attr_module_and_factory_locks(tmp_path):
    root = write_tree(tmp_path, {"mod.py": (
        "import threading\n"
        "GLOBAL = threading.Lock()\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._cv = threading.Condition()\n"
        "        self._r = threading.RLock()\n"
        "        self._table = {}\n"
        "    def _key_lock(self, key):\n"
        "        return self._table.setdefault(key, threading.Lock())\n"
    )})
    report = analyze_tree([root])
    by_id = {lock.lock_id: lock for lock in report.locks}
    assert set(by_id) == {
        "mod.GLOBAL", "Store._lock", "Store._cv", "Store._r",
        "Store._key_lock()",
    }
    assert not by_id["Store._lock"].reentrant
    assert by_id["Store._r"].reentrant
    assert by_id["Store._cv"].reentrant
    assert by_id["Store._key_lock()"].kind == "Lock"


# ----------------------------------------------------------------------
# REPRO-C001: cycles
# ----------------------------------------------------------------------
def test_opposite_nesting_orders_report_a_cycle(tmp_path):
    root = write_tree(tmp_path, {"mod.py": (
        "import threading\n"
        "class Pair:\n"
        "    def __init__(self):\n"
        "        self._a = threading.Lock()\n"
        "        self._b = threading.Lock()\n"
        "    def forward(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                pass\n"
        "    def backward(self):\n"
        "        with self._b:\n"
        "            with self._a:\n"
        "                pass\n"
    )})
    report = analyze_tree([root])
    cycles = [f for f in report.findings if f.rule == "REPRO-C001"]
    assert len(cycles) == 1
    assert "Pair._a" in cycles[0].message
    assert "Pair._b" in cycles[0].message
    assert "Pair.forward" in cycles[0].message
    assert "Pair.backward" in cycles[0].message
    assert {("Pair._a", "Pair._b"), ("Pair._b", "Pair._a")} <= \
        report.edge_pairs()


def test_cycle_through_a_call_chain_is_found(tmp_path):
    root = write_tree(tmp_path, {"mod.py": (
        "import threading\n"
        "class Pair:\n"
        "    def __init__(self):\n"
        "        self._a = threading.Lock()\n"
        "        self._b = threading.Lock()\n"
        "    def forward(self):\n"
        "        with self._a:\n"
        "            self._take_b()\n"
        "    def _take_b(self):\n"
        "        with self._b:\n"
        "            pass\n"
        "    def backward(self):\n"
        "        with self._b:\n"
        "            self._take_a()\n"
        "    def _take_a(self):\n"
        "        with self._a:\n"
        "            pass\n"
    )})
    report = analyze_tree([root])
    cycles = [f for f in report.findings if f.rule == "REPRO-C001"]
    assert len(cycles) == 1
    # witness names the call chain, not just the endpoints
    assert "_take_b" in cycles[0].message


def test_consistent_order_everywhere_is_clean(tmp_path):
    root = write_tree(tmp_path, {"mod.py": (
        "import threading\n"
        "class Pair:\n"
        "    def __init__(self):\n"
        "        self._a = threading.Lock()\n"
        "        self._b = threading.Lock()\n"
        "    def one(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                pass\n"
        "    def two(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                pass\n"
    )})
    report = analyze_tree([root])
    assert report.findings == []
    assert report.edge_pairs() == {("Pair._a", "Pair._b")}


# ----------------------------------------------------------------------
# REPRO-C002: held across fork / blocking / await
# ----------------------------------------------------------------------
def test_fork_under_lock_is_flagged_with_witness(tmp_path):
    root = write_tree(tmp_path, {"mod.py": (
        "import os\n"
        "import threading\n"
        "class Spawner:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def bad(self):\n"
        "        with self._lock:\n"
        "            os.fork()\n"
    )})
    findings = analyze_tree([root]).findings
    assert [f.rule for f in findings] == ["REPRO-C002"]
    assert "fork" in findings[0].message
    assert "Spawner._lock" in findings[0].message


def test_fork_reached_through_a_call_chain_is_flagged(tmp_path):
    root = write_tree(tmp_path, {
        "workers.py": (
            "from multiprocessing import get_context\n"
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self._ctx = get_context('fork')\n"
            "        self._spawn()\n"
            "    def _spawn(self):\n"
            "        self._ctx.Process(target=None)\n"
        ),
        "serve.py": (
            "import threading\n"
            "from pkg.workers import Pool\n"
            "class Service:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def rebuild(self):\n"
            "        with self._lock:\n"
            "            return Pool()\n"
        ),
    })
    findings = analyze_tree([root]).findings
    flagged = [f for f in findings if f.rule == "REPRO-C002"]
    assert len(flagged) == 1
    assert flagged[0].qualname == "Service.rebuild"
    assert "Pool.__init__" in flagged[0].message
    assert "_spawn" in flagged[0].message


def test_blocking_and_await_under_lock_are_flagged(tmp_path):
    root = write_tree(tmp_path, {"mod.py": (
        "import threading\n"
        "import time\n"
        "class Waiter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def sleepy(self):\n"
        "        with self._lock:\n"
        "            time.sleep(1)\n"
        "    def joiny(self, thread):\n"
        "        with self._lock:\n"
        "            thread.join()\n"
        "    async def awaity(self, fut):\n"
        "        with self._lock:\n"
        "            await fut\n"
    )})
    findings = analyze_tree([root]).findings
    kinds = sorted(f.message.split("held across ")[1].split(" ")[0]
                   for f in findings)
    assert kinds == ["await", "blocking", "blocking"]


def test_string_join_and_os_path_join_are_not_blocking(tmp_path):
    root = write_tree(tmp_path, {"mod.py": (
        "import os\n"
        "import threading\n"
        "class Joiner:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def fine(self, parts):\n"
        "        with self._lock:\n"
        "            text = ', '.join(parts)\n"
        "            return os.path.join('a', text)\n"
    )})
    assert analyze_tree([root]).findings == []


# ----------------------------------------------------------------------
# REPRO-C003: double acquisition
# ----------------------------------------------------------------------
def test_nested_with_on_same_nonreentrant_lock(tmp_path):
    root = write_tree(tmp_path, {"mod.py": (
        "import threading\n"
        "class Oops:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def bad(self):\n"
        "        with self._lock:\n"
        "            with self._lock:\n"
        "                pass\n"
    )})
    findings = analyze_tree([root]).findings
    assert [f.rule for f in findings] == ["REPRO-C003"]
    assert "self-deadlock" in findings[0].message


def test_double_acquire_via_call_path(tmp_path):
    root = write_tree(tmp_path, {"mod.py": (
        "import threading\n"
        "class Oops:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def outer(self):\n"
        "        with self._lock:\n"
        "            self.inner()\n"
        "    def inner(self):\n"
        "        with self._lock:\n"
        "            pass\n"
    )})
    findings = analyze_tree([root]).findings
    assert [f.rule for f in findings] == ["REPRO-C003"]
    assert "inner" in findings[0].message


def test_rlock_reacquisition_is_fine(tmp_path):
    root = write_tree(tmp_path, {"mod.py": (
        "import threading\n"
        "class Fine:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.RLock()\n"
        "    def outer(self):\n"
        "        with self._lock:\n"
        "            self.inner()\n"
        "    def inner(self):\n"
        "        with self._lock:\n"
        "            pass\n"
    )})
    assert analyze_tree([root]).findings == []


# ----------------------------------------------------------------------
# report surface
# ----------------------------------------------------------------------
def test_payload_is_json_shaped(tmp_path):
    root = write_tree(tmp_path, {"mod.py": (
        "import threading\n"
        "class P:\n"
        "    def __init__(self):\n"
        "        self._a = threading.Lock()\n"
        "        self._b = threading.Lock()\n"
        "    def f(self):\n"
        "        with self._a:\n"
        "            with self._b:\n"
        "                pass\n"
    )})
    payload = analyze_tree([root]).to_payload()
    assert payload["n_modules"] == 2  # __init__.py + mod.py
    assert [e["holding"] for e in payload["edges"]] == ["P._a"]
    assert payload["edges"][0]["witness"] == ["P.f:8"]
    assert payload["findings"] == []
    assert {l["lock"] for l in payload["locks"]} == {"P._a", "P._b"}


def test_findings_work_with_the_lint_allowlist(tmp_path):
    root = write_tree(tmp_path, {"mod.py": (
        "import os\n"
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def bad(self):\n"
        "        with self._lock:\n"
        "            os.fork()\n"
    )})
    findings = analyze_tree([root]).findings
    assert len(findings) == 1
    allow = Allowlist([AllowlistEntry(
        rule="REPRO-C002", path="pkg/mod.py", qualname="S.bad",
        justification="test", line=1,
    )])
    assert allow.suppresses(findings[0])
    assert allow.unused_entries() == []


# ----------------------------------------------------------------------
# the real tree: the production contract
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def repo_report():
    return analyze_tree([REPO_SRC])


def test_repo_tree_is_clean(repo_report):
    assert [f.render() for f in repo_report.findings] == []


def test_repo_tree_has_no_fork_under_lock(repo_report):
    """No process is forked while a lock is held anywhere in the tree."""
    fork_findings = [
        f for f in repo_report.findings
        if f.rule == "REPRO-C002" and "fork" in f.message
    ]
    assert fork_findings == []


def test_repo_tree_models_the_known_lock_families(repo_report):
    ids = {lock.lock_id for lock in repo_report.locks}
    assert "DatasetStore._write_lock()" in ids  # per-key factory family
    assert "RolloutManager._lock" in ids
    assert ("DatasetStore._write_lock()", "DatasetStore._stats_lock") in \
        repo_report.edge_pairs()
