#!/usr/bin/env python3
"""Hash the CLI's output over a fixed argv corpus, to compare two checkouts.

Each argv runs in a fresh `python -m pretsums.cli` process, once with
`--format json` and once with `--format csv`, against the `src/` of the
checkout holding this script.  One line per run goes to stdout:

    <stdout sha256> <exit code> <stderr sha256> <argv>

The corpus is README's CLI lines (read from README.md), the argv of
tests/test_cli.py, complex-valued f, local-factor problems, moduli on both
sides of the character-ranking window, characters whose conductor, primitive
character or local factors the run reads, complex f on both sides of numpy's
temporary-elision size, frame counts J and thresholds z, arc parameters eps,
and inputs the CLI rejects.  Argv that exit 1 or 2 are part of the corpus;
the script itself exits 0.  No golden hashes are kept: diff the output of two
checkouts.

Usage: python3 scripts/cli_bytes.py > hashes.txt
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the argv of tests/test_cli.py (table-file argv there use temporary paths)
TEST_CLI = [
    "constants",
    "oscint x=10 beta=0 t=0",
    "expsum direct f=one alpha=1/2 x=4",
    "expsum predict f=legendre:5 alpha=2/5 x=20000",
    "triples f=one g=one h=one a=1 b=1 c=1 x=4",
    "partition f=one g=one h=one N=6",
    "arcs alpha=1/3 x=1000000",
    "energy f=minus-all x=4096",
    "twisted f=legendre:7 h=kloosterman:1,1 q=7 x=20000",
    "pretend f=legendre:5 x=10000 q=5",
    "expsum scan f=minus-all x=2048 grid=64",
    "expsum scan f=legendre:5 x=4096 grid=4097",
    "expsum predict f=randpm:7 alpha=1/4 x=10000",
    "energy f=randpm:3 x=2048",
    "oscint x=5 beta=0.1 t=0",
    "expsum scan f=one x=512 grid=16",
    "bogus",
    "expsum direct f=nope:3 alpha=0.5 x=10",
    "expsum predict f=one alpha=2/4x x=10",
    "oscint x=-1 beta=0 t=0",
    "expsum predict f=one x=100",
    "energy f=one x=1",
    "energy f=one x=2",
    "expsum direct f=one alpha=nan x=100",
    "expsum direct f=one alpha=inf x=100",
    "oscint x=10 beta=nan t=0",
    "expsum direct f=char:5:1,2,3 alpha=1/3 x=100",
    "expsum direct f=char:5: alpha=1/3 x=100",
    "expsum direct f=char:5:7 alpha=1/3 x=100",
    "expsum direct f=sign:mod:0:1 alpha=1/3 x=100",
    "expsum direct f=legendre:4 alpha=1/3 x=100",
    "expsum direct f=legendre:9 alpha=1/3 x=100",
    "expsum direct f=legendre:x alpha=0.5 x=10",
    "triples f=minus-all g=minus-all h=sign:mod:4:3 x=20011",
]

# complex-valued f: predictors, frames and scans whose main terms read kappa,
# S_{f_j} and the local daggers
COMPLEX_F = [
    "expsum predict f=randpm:2*char:7:2 alpha=3/7 x=30011",
    "expsum predict f=legendre:7*char:5:1 alpha=2/35 x=20000",
    "expsum predict f=char:7:1 alpha=1/7 x=20000",
    "expsum predict f=nit:0.5*legendre:5 alpha=2/5 x=20000",
    "expsum predict f=randpm:4*nit:-1.5 alpha=1/4 x=20000 eps=0.2",
    "twisted f=randpm:2*char:7:2 h=kloosterman:1,1 q=7 x=20000",
    "twisted f=char:7:1 h=expmod:poly=1,2,0 q=7 x=20000",
    "pretend f=randpm:2*char:7:2 x=20000 q=7",
    "pretend f=nit:0.5*legendre:5 x=20000 q=5",
    "triples f=char:7:1 g=char:7:5 h=one x=3001",
    "partition f=nit:0.3 g=char:5:1 h=char:5:3 N=3001",
    "expsum scan f=randpm:1 x=16384 grid=16385",
    "expsum scan f=randpm:2*char:7:2 x=16384 grid=16385",
    "expsum scan f=randpm:3*legendre:5 x=16384 grid=16385",
    "expsum scan f=sign:all x=4096 grid=8193",
    "expsum scan f=char:7:1 x=4096 grid=4097",
]

# local-factor problems: real-unit and generic routes, both modes
LOCAL_FACTOR = [
    "triples f=legendre:5 g=one h=legendre:5 a=2 b=3 c=1 x=3001",
    "triples f=randpm:3 g=randpm:4 h=randpm:5 x=2003",
    "triples f=sign:in:3 g=sign:in:3 h=sign:in:3 x=5003",
    "partition f=minus-all g=minus-all h=minus-all N=5003",
    "partition f=legendre:7*char:5:1 g=legendre:7*char:5:1 h=legendre:7*char:5:1 N=3001",
    "partition f=smoothset:mod:3:1 g=smoothset:mod:4:1 h=smoothset:mod:5:1 N=2003",
    "partition f=sign:in:3 g=sign:in:3 h=sign:in:3 N=5003",
    "partition f=sign:in:3 g=smoothset:mod:4:1 h=sign:in:3 N=5005",
]


# a modulus beyond and inside the ranking window [sqrt(X), X^2], X = sqrt(x)
RANKING_WINDOW = [
    "pretend f=one x=100 q=2003",
    "pretend f=one x=1100 q=2003",
    "pretend f=one x=5000 q=2003",
]

# characters mod 2^e and composite moduli: conductors, primitive characters,
# local factors of charshift, the principality gate, a 2002-character ranking
CHARACTERS = [
    "pretend f=char:24:1,1,1 x=20000 q=24",
    "pretend f=randpm:5*char:40:1,0,2 x=20000 q=40",
    "expsum predict f=char:16:1,3 alpha=3/16 x=20000",
    "twisted f=legendre:7 h=charshift:1,1:5 q=12 x=20000",
    "partition f=char:8:1,1 g=char:8:1,1 h=one N=3001",
    "pretend f=one x=20000 q=2003",
]

# the periodic-sum oracle with complex f, below and above 16,384 entries
# (where numpy starts reusing a temporary operand of a product in place)
PERIODIC_SUM = [
    "expsum direct f=randpm:2*char:7:2 alpha=0.4286 x=997",
    "expsum direct f=randpm:2*char:7:2 alpha=0.4286 x=30011",
    "expsum direct f=randpm:2*char:7:2 alpha=3/7 x=997",
    "twisted f=randpm:2*char:7:2 h=charshift:1,1:5 q=12 x=997",
]

# frame counts J and local-factor thresholds z: J = 1 (no frames), z = 2,
# and the J < 1 and z < 2 the CLI rejects
J_AND_Z = [
    "pretend f=legendre:5 x=10000 q=5 J=1",
    "expsum predict f=one alpha=1/3 x=100 J=0",
    "expsum predict f=one alpha=1/3 x=100 J=-1",
    "pretend f=one x=100 q=5 J=-2",
    "triples f=legendre:5 g=one h=legendre:5 a=2 b=3 c=1 x=600 z=2",
    "triples f=legendre:5 g=one h=legendre:5 a=2 b=3 c=1 x=600 z=1.5",
    "triples f=legendre:5 g=one h=legendre:5 a=2 b=3 c=1 x=600 z=-10",
]

# arc parameters eps outside (0, 1] (one too large for a scan or energy grid),
# the removed --seed flag, and a twisted period q < 1 whatever h is
INPUT_BOUNDARY = [
    "arcs alpha=1/3 x=1000 eps=400",
    "arcs alpha=1/3 x=1000 eps=-400",
    "arcs alpha=1/3 x=1000 eps=-1",
    "arcs alpha=1/3 x=1000 eps=1",
    "expsum predict f=one alpha=1/3 x=1000 eps=400",
    "expsum scan f=one x=100 grid=3 eps=400",
    "energy f=one x=100 eps=400",
    "arcs alpha=1/3 x=1000 --seed 7",
    "twisted f=one h=one q=-5 x=100",
    "pretend f=one x=-4 q=3",
    "twisted f=one h=kloosterman:1,1 q=7 x=-3",
    "pretend f=one x=0 q=3",
    "pretend f=one x=1 q=3",
    "pretend f=one x=2 q=3",
    "twisted f=one h=one q=1 x=0",
    "twisted f=one h=one q=1 x=1",
    "twisted f=one h=one q=1 x=2",
    "expsum predict f=legendre:5 alpha=2/5 x=3",
]


def readme_argv() -> list[str]:
    """The `pretsums ...` lines of README's CLI block, as CI extracts them."""
    out, in_cli = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("## CLI"):
            in_cli = True
        elif in_cli and line == "```" and out:
            break
        elif in_cli and line.startswith("pretsums "):
            out.append(line[len("pretsums ") :])
    return out


def without_format(argv: list[str]) -> list[str]:
    out, skip = [], False
    for tok in argv:
        if skip:
            skip = False
        elif tok == "--format":
            skip = True
        else:
            out.append(tok)
    return out


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    runs = 0
    corpus = [*readme_argv(), *TEST_CLI, *COMPLEX_F, *LOCAL_FACTOR, *RANKING_WINDOW, *CHARACTERS, *PERIODIC_SUM, *J_AND_Z, *INPUT_BOUNDARY]
    for line in corpus:
        for fmt in ("json", "csv"):
            argv = without_format(line.split()) + ["--format", fmt]
            cmd = [sys.executable, "-m", "pretsums.cli", *argv]
            r = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT)
            print(f"{sha(r.stdout)} {r.returncode} {sha(r.stderr)} {' '.join(argv)}", flush=True)
            runs += 1
    print(f"{runs} runs in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
