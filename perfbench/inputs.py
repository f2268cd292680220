"""Seeded query inputs: documents, Zipf picks and Poisson arrivals.

Everything here is a pure function of the workload seed (which is not
the training-corpus seed), so the same seed gives the same documents,
the same hot-set picks and the same arrival schedule, whatever order the
load-generator threads ask for them in.

Query documents are rewrites of corpus stories: each keeps a source
story's title and word order, swaps about one word in seven for a word
drawn from the whole corpus vocabulary, and ends with a reference token
spelt from its id.  The reference token is never a selected feature,
so it changes no encoding, but it makes every document's token stream
distinct, which is what the server's encoded-sequence cache keys on.
"""

from __future__ import annotations

import bisect
import random
import string
from typing import List, Sequence, Tuple

#: Query document ids start here, above every corpus NEWID, so the
#: in-process reference never confuses a query with a corpus story.
QUERY_ID_BASE = 100_000_000

#: Documents per stream; streams occupy disjoint id ranges.
STREAM_SIZE = 10_000_000
MEASURED, WARMUP = 0, 1

#: Share of body words replaced from the corpus vocabulary.
SWAP_SHARE = 1.0 / 7.0

#: classify_interactive: hot documents, Zipf exponent and arrival rate.
HOT_DOCS = 256
ZIPF_EXPONENT = 1.0
ARRIVAL_RATE = 40.0

#: classify_bulk: documents per request.
BULK_DOCS = 64


def _spell(k: int) -> str:
    """``k`` in lower-case letters (base 26), prefixed so it reads as a
    reference code rather than an English word."""
    letters = []
    while True:
        k, digit = divmod(k, 26)
        letters.append(string.ascii_lowercase[digit])
        if k == 0:
            break
    return "refq" + "".join(reversed(letters))


class QueryDocs:
    """The ``k``-th query document of a (seed, stream) pair.

    Args:
        sources: ``(title, body)`` pairs to rewrite (corpus stories).
        seed: the workload seed.
        stream: separates independent document sets drawn from one seed
            (``MEASURED`` and ``WARMUP`` never share an id or a text).
    """

    def __init__(
        self, sources: Sequence[Tuple[str, str]], seed: int, stream: int
    ) -> None:
        if not sources:
            raise ValueError("no source documents")
        self.sources = [(title, body.split()) for title, body in sources]
        self.vocabulary = sorted({w for _, words in self.sources for w in words})
        self.seed = seed
        self.stream = stream

    def payload(self, k: int) -> dict:
        """The request payload of document ``k``."""
        if not 0 <= k < STREAM_SIZE:
            raise ValueError(f"document index {k} outside the stream")
        doc_id = QUERY_ID_BASE + self.stream * STREAM_SIZE + k
        rng = random.Random(f"{self.seed}/{self.stream}/{k}")
        title, words = self.sources[rng.randrange(len(self.sources))]
        body = [
            rng.choice(self.vocabulary) if rng.random() < SWAP_SHARE else word
            for word in words
        ]
        body.append(_spell(doc_id))
        return {"id": doc_id, "title": title, "body": " ".join(body)}

    def batch(self, start: int, count: int) -> List[dict]:
        return [self.payload(k) for k in range(start, start + count)]


def zipf_picks(seed: int, count: int, n_items: int = HOT_DOCS,
               exponent: float = ZIPF_EXPONENT) -> List[int]:
    """``count`` item indices drawn with P(i) proportional to 1/(i+1)^s."""
    rng = random.Random(f"{seed}/zipf")
    cumulative = []
    total = 0.0
    for i in range(n_items):
        total += 1.0 / (i + 1) ** exponent
        cumulative.append(total)
    return [
        min(bisect.bisect_left(cumulative, rng.random() * total), n_items - 1)
        for _ in range(count)
    ]


def poisson_schedule(seed: int, seconds: float,
                     rate: float = ARRIVAL_RATE) -> List[float]:
    """Arrival offsets (seconds from the window start) of a Poisson
    process at ``rate`` per second over ``seconds``, conditioned on its
    expected count: ``round(rate * seconds)`` sorted uniform times.

    Fixing the count keeps the offered load, and the sample behind each
    percentile, the same on every seed; only the arrival pattern varies.
    """
    rng = random.Random(f"{seed}/arrivals")
    return sorted(rng.uniform(0.0, seconds)
                  for _ in range(round(rate * seconds)))


def repeat_share(picks: Sequence[int]) -> float:
    """Share of picks that repeat an earlier pick: the cache hit share an
    LRU at least as large as the hot set would see."""
    return 1.0 - len(set(picks)) / len(picks) if picks else 0.0
