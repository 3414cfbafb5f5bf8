"""The benchmark's workloads, their known answers and the output checks.

Each workload is a closed loop: one fresh process runs its `simsub`
commands one after another through `cli.run(argv)`.  A pass takes about
1 s (`series-tables`) or 14 s (`oracles`) on a 2-core host.

Every command's stdout is checked twice: its SHA-256 digest must equal
the digest recorded at the seed commit, and its content must agree with
an independent known answer (the paper's printed terms, or every
`N/N match` line of a verify report).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

MAX_CANDIDATES = "1000000000"


@dataclass(frozen=True)
class Workload:
    """Commands as (SIMSUB_THREADS, argv) pairs, at full and smoke-test size."""

    name: str
    full: tuple[tuple[int, tuple[str, ...]], ...]
    tiny: tuple[tuple[int, tuple[str, ...]], ...]

    def commands(self, size: str) -> tuple[tuple[int, tuple[str, ...]], ...]:
        if size not in ("full", "tiny"):
            raise ValueError(f"unknown size {size!r}")
        return self.full if size == "full" else self.tiny


def _coeffs(series, limit):
    return 1, ("coeffs", "--series", series, "--limit", str(limit))


def _verify(threads, module, limit):
    return threads, ("verify", "--module", module, "--limit", str(limit),
                     "--max-candidates", MAX_CANDIDATES)


def _cubic(limit):
    return 1, ("verify", "--module", "cubic3", "--limit", str(limit))


# The oracle commands share one workload because the host's noise needs
# 60 s runs and the time budget for all runs holds two workloads of that
# length; each command keeps its own worker count, so the thread pool is
# used by the count-mode kernel and bypassed by the principality search.
# cubic3 --limit 4 is the first size whose rotation check has a term with
# a non-unit denominator (192 rotations at norm 4, f-cubic(64) = 9).
WORKLOADS = {w.name: w for w in (
    Workload(
        "series-tables",
        full=(_coeffs("phi-c", 60000), _coeffs("f-cubic", 60000),
              _coeffs("zeta-qitau", 300000), _coeffs("zeta-zisqrt2", 300000)),
        tiny=(_coeffs("phi-c", 3000), _coeffs("f-cubic", 3000),
              _coeffs("zeta-qitau", 10000), _coeffs("zeta-zisqrt2", 10000)),
    ),
    Workload(
        "oracles",
        full=(_verify(2, "ztau", 400), _verify(2, "zitau", 80),
              _verify(1, "zisqrt2", 60), _cubic(4)),
        tiny=(_verify(2, "ztau", 40), _verify(2, "zitau", 12),
              _verify(1, "zisqrt2", 12), _cubic(1)),
    ),
)}

# SHA-256 of each command's stdout, recorded at the seed commit.
DIGESTS = {
    "coeffs --series phi-c --limit 60000":
        "1646097b469877bfb647e9b74afb2c7b3607df809ff560d720bda674c6b01f41",
    "coeffs --series f-cubic --limit 60000":
        "9788428ec412c2e122ea74163defebff928f350c876b0cfc69931a1167ecdaa8",
    "coeffs --series zeta-qitau --limit 300000":
        "97c7b7303a320a03aded419d352340aff023d035b8d7b7ba07a0e4fb0b7481be",
    "coeffs --series zeta-zisqrt2 --limit 300000":
        "f5ecf9e2f0e2edd3e100c8ab20420e77ab608d532bc6159d4e48a9024de32ebb",
    "coeffs --series phi-c --limit 3000":
        "dc547401561fc7fdffaf116a1cbae35fc8b14b469a6accf09dc4b3ebdda18f3e",
    "coeffs --series f-cubic --limit 3000":
        "643c3082d1cc44e304dd1d1c062f612eed6e4d926512505ff8e0b1de2036f3b7",
    "coeffs --series zeta-qitau --limit 10000":
        "51dc43942507c21a1a3a32e32c039ec9cd445f7c7d8f82374125d9df96da50bd",
    "coeffs --series zeta-zisqrt2 --limit 10000":
        "1cd696c88c1ce76450f879593c99551ff455ddd14758f926d32d79275919cae6",
    "verify --module ztau --limit 400 --max-candidates 1000000000":
        "100c796c70086d25cc0c9eed2ef4d4821602607b3a2c636d814cf64c86f1c145",
    "verify --module zitau --limit 80 --max-candidates 1000000000":
        "54bbe0bb692498b7bfffc39c217e75527defbddc27ab2990a90bf0385f869ab7",
    "verify --module ztau --limit 40 --max-candidates 1000000000":
        "5fb1da2c9bde2fd8ff315568e90d8303cd78ed49e95b9a2234f61c978fb7f5c1",
    "verify --module zitau --limit 12 --max-candidates 1000000000":
        "15155a24421f62674506dba30042f4f68e84b230d56c6df3cdfc9274c0a876a3",
    "verify --module zisqrt2 --limit 60 --max-candidates 1000000000":
        "31d151263c1956bee9c0467a03b290005fbafca834d919b1e6a16e0263ed5cf0",
    "verify --module zisqrt2 --limit 12 --max-candidates 1000000000":
        "15155a24421f62674506dba30042f4f68e84b230d56c6df3cdfc9274c0a876a3",
    "verify --module cubic3 --limit 4":
        "700d4b3eed6bb227d6df91298d6cf4c02348a4d9b9c3d3b23e9c29cdf1542b6d",
    "verify --module cubic3 --limit 1":
        "a65b615490b0587eea0381a2f70f41006eac379b076799267244948ce919eb0d",
}

# Terms printed in the paper (the acceptance suite holds the same ones).
# phi-c terms are the rotation counts 24, 192, 144, 240 divided by 24.
PAPER_TERMS = {
    "zeta-qitau": {1: 1, 4: 1, 5: 2, 9: 2, 16: 1, 20: 2, 25: 3, 36: 2,
                   45: 4, 49: 2, 64: 1, 80: 2, 81: 3},
    "zeta-zisqrt2": {1: 1, 2: 0, 4: 2, 8: 2, 9: 2, 16: 2, 17: 4, 25: 2,
                     32: 2, 36: 4, 41: 4, 49: 2, 64: 2, 68: 8},
    "phi-c": {1: 1, 4: 8, 5: 6, 9: 10},
    "f-cubic": {1: 1, 64: 9, 125: 7, 729: 11, 1331: 26, 4096: 41,
                6859: 42, 8000: 63, 15625: 37, 24389: 62},
}

_MATCH = re.compile(r"(\d+)/(\d+) match")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(argv, text: str) -> str | None:
    """Why the output of one command is wrong, or None if it is right."""
    key = " ".join(argv)
    want = DIGESTS.get(key)
    if want is None:
        return f"no recorded digest for {key!r}"
    if digest(text) != want:
        return f"digest mismatch for {key!r}"
    if argv[0] == "coeffs":
        payload = json.loads(text)
        table = {row["m"]: row["a"] for row in payload["coefficients"]}
        for m, a in PAPER_TERMS[argv[2]].items():
            if m <= payload["limit"] and table.get(m, 0) != a:
                return f"{argv[2]} coefficient {m} is {table.get(m, 0)}, paper {a}"
        if argv[2] == "f-cubic" and any(round(m ** (1 / 3)) ** 3 != m for m in table):
            return "f-cubic has a coefficient off the cubes"
        return None
    lines = _MATCH.findall(text)
    if not lines or any(got != total for got, total in lines):
        return f"verify report for {key!r} is not all-match"
    return None
