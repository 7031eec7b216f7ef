import io
import json
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from pretsums.cli import SUBCOMMANDS, _fmt, jsonable, main, render
from pretsums.expsum import arc_decompose_Rf, classify_alpha
from pretsums.funcspec import parse_multfunc

PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}


def exact_keys(properties: dict) -> dict:
    """An object schema with exactly these keys: a renamed or new report field
    is a test edit."""
    return {
        "type": "object",
        "required": list(properties),
        "properties": properties,
        "additionalProperties": False,
    }


TERM_SCHEMA = exact_keys(
    {
        "j": {"type": "integer"},
        "chi": {"type": "array", "items": {"type": "integer"}},
        "r": {"type": "integer"},
        "t": {"type": "number"},
        "coefficient": PAIR,
        "I": PAIR,
        "S": PAIR,
        "value": PAIR,
    }
)

PREDICTION_SCHEMA = exact_keys(
    {
        "oracle": PAIR,
        "predicted": PAIR,
        "terms": {"type": "array", "items": TERM_SCHEMA},
        "err_budget": {"type": "number"},
        "abs_discrepancy": {"type": "number"},
        "rel_discrepancy": {"type": "number"},
    }
)

ARC_SCHEMA = exact_keys(
    {
        "alpha": {"type": "number"},
        "a": {"type": "integer"},
        "q": {"type": "integer", "minimum": 1},
        "beta": {"type": "number"},
        "x": {"type": "integer"},
        "eps": {"type": "number"},
        "Q": {"type": "number"},
        "Q1": {"type": "number"},
        "Q3": {"type": "number"},
        "regime": {"enum": ["major", "minor"]},
        "major_sec6": {"type": "boolean"},
        "in_qrange_window": {"type": "boolean"},
    }
)

CONSTANTS_SCHEMA = exact_keys(
    {
        "delta0": {"type": "number"},
        "kappa": {"type": "number"},
        "kappa_prime": {"type": "number"},
        "C2_product": {"type": "number"},
        "eight_forty_fifths": {"type": "number"},
        "two_minus_one_max": {"type": "number"},
        "mixed_max": {"type": "object"},
    }
)

TRIPLES_SCHEMA = exact_keys(
    {
        "scale": {"type": "integer"},
        "mode": {"enum": ["linear", "partition"]},
        "oracle_count": PAIR,
        "oracle_density": PAIR,
        "predicted_density": PAIR,
        "path": {"enum": ["real-unit", "generic"]},
        "factors": {"type": "object"},
        "abs_discrepancy": {"type": "number"},
        "rel_discrepancy": {"type": ["number", "null"]},
    }
)

ENERGY_SCHEMA = exact_keys(
    {
        "x": {"type": "integer"},
        "M": {"type": "integer"},
        "eps": {"type": "number"},
        "total_energy": {"type": "number"},
        "coefficient_energy": {"type": "number"},
        "minor_energy": {"type": "number"},
        "major_energy": {"type": "number"},
        "minor_ratio": {"type": "number"},
    }
)


def run(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(args)
    return rc, buf.getvalue()


def test_constants_schema():
    rc, out = run(["constants"])
    assert rc == 0
    obj = json.loads(out)
    jsonschema.validate(obj, CONSTANTS_SCHEMA)
    assert abs(obj["delta0"] - 0.656999) < 1e-5


def test_oscint():
    rc, out = run(["oscint", "x=10", "beta=0", "t=0"])
    obj = json.loads(out)
    assert rc == 0 and obj["re"] == 1.0 and obj["im"] == 0.0
    assert obj["method"] == "closed-form"


def test_expsum_direct_and_predict():
    rc, out = run(["expsum", "direct", "f=one", "alpha=1/2", "x=4"])
    assert rc == 0 and abs(json.loads(out)["re"]) < 1e-12
    rc, out = run(["expsum", "predict", "f=legendre:5", "alpha=2/5", "x=20000"])
    obj = json.loads(out)
    assert rc == 0
    jsonschema.validate({k: v for k, v in obj.items() if k != "arc"}, PREDICTION_SCHEMA)
    jsonschema.validate(obj["arc"], ARC_SCHEMA)
    assert obj["rel_discrepancy"] < 0.01


def test_triples_and_partition():
    rc, out = run(["triples", "f=one", "g=one", "h=one", "a=1", "b=1", "c=1", "x=4"])
    obj = json.loads(out)
    assert rc == 0
    jsonschema.validate(obj, TRIPLES_SCHEMA)
    assert abs(obj["oracle_density"][0] - 0.75) < 1e-12
    rc, out = run(["partition", "f=one", "g=one", "h=one", "N=6"])
    obj = json.loads(out)
    assert rc == 0 and abs(obj["oracle_density"][0] - 10 / 18) < 1e-12
    jsonschema.validate(obj, TRIPLES_SCHEMA)
    assert obj["scale"] == 6 and obj["mode"] == "partition"


@dataclass
class _Inner:
    z: complex

    @property
    def twice(self) -> complex:
        return 2 * self.z


@dataclass
class _Outer:
    items: list
    pair: tuple
    table: dict
    missing: float | None


def test_jsonable_serializes_fields_and_properties():
    """Fields and properties by name, complex as [re, im] at any depth, tuples
    as lists, and None as JSON null."""
    report = _Outer([_Inner(1 + 2j)], (3, 4j), {"k": _Inner(-0.5 + 0j)}, None)
    expected = {
        "items": [{"z": [1.0, 2.0], "twice": [2.0, 4.0]}],
        "pair": [3, [0.0, 4.0]],
        "table": {"k": {"z": [-0.5, 0.0], "twice": [-1.0, 0.0]}},
        "missing": None,
    }
    assert jsonable(report) == expected
    assert jsonable(expected) == expected
    text = render((report, [], []), {"format": "json"})
    assert json.loads(text) == expected and '"missing": null' in text


def test_arcs_energy_twisted():
    rc, out = run(["arcs", "alpha=1/3", "x=1000000"])
    obj = json.loads(out)
    assert rc == 0 and obj["q"] == 3 and obj["regime"] == "major"
    jsonschema.validate(obj, ARC_SCHEMA)
    rc, out = run(["energy", "f=minus-all", "x=4096"])
    obj = json.loads(out)
    assert rc == 0
    jsonschema.validate(obj, ENERGY_SCHEMA)
    rc, out = run(["twisted", "f=legendre:7", "h=kloosterman:1,1", "q=7", "x=20000"])
    obj = json.loads(out)
    assert rc == 0
    jsonschema.validate(obj, PREDICTION_SCHEMA)


def test_pretend():
    rc, out = run(["pretend", "f=legendre:5", "x=10000", "q=5"])
    obj = json.loads(out)
    assert rc == 0 and obj["frames"][0]["r"] == 5
    assert obj["frames"][0]["distance"] >= 0.0


def test_scan_csv():
    rc, out = run(["expsum", "scan", "f=minus-all", "x=2048", "grid=64", "--format", "csv"])
    lines = out.strip().splitlines()
    assert rc == 0
    assert lines[0] == "alpha,absR,regime,absM,absE"
    assert len(lines) == 65
    for line in lines[1:]:
        cols = line.split(",")
        assert len(cols) == 5 and cols[2] in ("major", "minor")


def test_scan_rows_match_classifier_and_arc_split():
    x, M = 4096, 4097
    rc, out = run(["expsum", "scan", "f=legendre:5", f"x={x}", f"grid={M}", "--format", "csv"])
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == M
    f = parse_multfunc("legendre:5")
    major = 0
    for k, (_, _, regime, absM, _) in enumerate(rows):
        assert regime == classify_alpha(Fraction(k, M), x).regime, k
        if regime == "major":
            major += 1
            split = arc_decompose_Rf(f, Fraction(k, M), x)
            assert absM == _fmt(abs(split.M)), k
    assert major == 1545


def test_determinism():
    args = ["expsum", "predict", "f=randpm:7", "alpha=1/4", "x=10000"]
    outs = {run(args)[1] for _ in range(2)}
    assert len(outs) == 1
    args = ["energy", "f=randpm:3", "x=2048"]
    assert run(args)[1] == run(args)[1]


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    rc, out = run(["oscint", "x=5", "beta=0.1", "t=0", "--out", str(target)])
    assert rc == 0 and out == ""
    obj = json.loads(target.read_text())
    assert "re" in obj


def test_exit_codes(tmp_path):
    table = tmp_path / "half.txt"
    table.write_text("2.5 1 0\n")
    env_runs = [
        (["bogus"], 2),
        (["expsum", "direct", "f=nope:3", "alpha=0.5", "x=10"], 2),
        (["expsum", "direct", "f=legendre:x", "alpha=0.5", "x=10"], 2),
        (["expsum", "predict", "f=one", "alpha=2/4x", "x=10"], 2),
        (["oscint", "x=-1", "beta=0", "t=0"], 1),
        (["expsum", "predict", "f=one", "x=100"], 2),  # missing alpha
        (["energy", "f=one", "x=1"], 1),
        (["energy", "f=one", "x=2"], 1),
        (["expsum", "direct", "f=one", "alpha=nan", "x=100"], 2),
        (["expsum", "direct", "f=one", "alpha=inf", "x=100"], 2),
        (["oscint", "x=10", "beta=nan", "t=0"], 2),
        (["expsum", "direct", f"f=table:{table}", "alpha=1/3", "x=100"], 2),
        (["triples", "f=legendre:5", "g=one", "h=legendre:5", "a=2", "b=3", "c=1", "x=600", "z=103"], 1),
        (["triples", "f=legendre:5", "g=one", "h=legendre:5", "a=9973", "b=1", "c=1", "x=600", "z=100"], 1),
        (["triples", "f=legendre:5", "g=one", "h=legendre:5", "a=2", "b=3", "c=1", "x=600", "z=-10"], 1),
        (["expsum", "predict", "f=one", "alpha=1/3", "x=100", "J=0"], 1),
        (["expsum", "predict", "f=one", "alpha=1/3", "x=100", "J=-1"], 1),
        (["pretend", "f=one", "x=100", "q=5", "J=-2"], 1),
        (["arcs", "alpha=1/3", "x=1000", "eps=400"], 1),
        (["arcs", "alpha=1/3", "x=1000", "eps=-400"], 1),
        (["arcs", "alpha=1/3", "x=1000", "eps=-1"], 1),
        (["arcs", "alpha=1/3", "x=1000", "eps=0"], 1),
        (["expsum", "predict", "f=one", "alpha=1/3", "x=1000", "eps=400"], 1),
        (["expsum", "scan", "f=one", "x=100", "grid=3", "eps=400"], 1),
        (["expsum", "scan", "f=one", "x=0", "grid=3"], 1),
        (["energy", "f=one", "x=100", "eps=400"], 1),
        (["arcs", "alpha=1/3", "x=1000", "--seed", "7"], 2),
        (["twisted", "f=one", "h=one", "q=-5", "x=100"], 1),
        (["twisted", "f=one", "h=one", "q=0", "x=100"], 1),
        (["pretend", "f=one", "x=-4", "q=3"], 1),
        (["twisted", "f=one", "h=kloosterman:1,1", "q=7", "x=-3"], 1),
    ]
    for args, code in env_runs:
        r = subprocess.run(
            [sys.executable, "-m", "pretsums.cli", *args], capture_output=True, text=True
        )
        assert r.returncode == code, (args, r.returncode, r.stderr)
        assert "Traceback" not in r.stderr, (args, r.stderr)
        assert len(r.stderr.splitlines()) == 1, (args, r.stderr)


def test_warning_is_one_stderr_line_and_reaches_callers():
    """A warning prints as one `warning:` line with no source path, and an
    in-process caller that records warnings still receives it."""
    args = ["expsum", "predict", "f=legendre:5", "alpha=2/5", "x=3"]
    message = "q=2 is outside the supported range q <= Q1 = 0.1; computing anyway"
    r = subprocess.run([sys.executable, "-m", "pretsums.cli", *args], capture_output=True, text=True)
    assert r.returncode == 0 and r.stderr.splitlines() == [f"warning: {message}"]
    formatwarning = warnings.formatwarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _ = run(args)
    assert rc == 0 and [str(w.message) for w in caught] == [message]
    assert warnings.formatwarning is formatwarning


def test_constructor_domain_errors(tmp_path, capsys):
    """Character exponents outside the group, a modulus-0 residue rule, a
    non-prime table key and a Legendre modulus that is not an odd prime are
    domain errors (exit 1) with one line of message."""
    table = tmp_path / "four.txt"
    table.write_text("2 -1 0\n4 1 0\n")
    specs = ("char:5:1,2,3", "char:5:", "char:5:7", "sign:mod:0:1", f"table:{table}", "legendre:4", "legendre:9")
    for spec in specs:
        rc = main(["expsum", "direct", f"f={spec}", "alpha=1/3", "x=100"])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("domain error:"), (spec, rc, err)
        assert len(err.splitlines()) == 1, (spec, err)


def test_triples_zero_prediction_has_no_relative_discrepancy():
    """delta = 0 makes the prediction 0: the relative discrepancy is undefined,
    an empty CSV cell and a JSON null, not a division by a tiny floor."""
    args = ["triples", "f=minus-all", "g=minus-all", "h=sign:mod:4:3", "x=20011"]
    rc, out = run([*args, "--format", "csv"])
    assert rc == 0
    assert out.splitlines() == [
        "oracle_density,predicted_density,rel_disc,path",
        "-0.000161946809521,0,,generic",
    ]
    rc, out = run(args)
    obj = json.loads(out)
    assert rc == 0 and obj["predicted_density"] == [0.0, 0.0] and obj["rel_discrepancy"] is None


def test_parse_error_echoes_token():
    r = subprocess.run(
        [sys.executable, "-m", "pretsums.cli", "expsum", "direct", "f=nope:3", "alpha=0.5", "x=10"],
        capture_output=True,
        text=True,
    )
    assert "nope" in r.stderr


def test_threads_env(monkeypatch):
    monkeypatch.setenv("PRETSUMS_THREADS", "2")
    rc, out = run(["expsum", "scan", "f=one", "x=512", "grid=16", "--format", "csv"])
    assert rc == 0
    monkeypatch.setenv("PRETSUMS_THREADS", "junk")
    rc, out2 = run(["expsum", "scan", "f=one", "x=512", "grid=16", "--format", "csv"])
    assert rc == 0 and out == out2


def test_table_file_messages(tmp_path, capsys):
    """Each parse error of the prime-table and periodic-table readers exits 2
    with its one stderr line; blank and `#` lines are skipped."""
    missing = tmp_path / "missing.txt"

    def table(name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def expsum(path):
        return ["expsum", "direct", f"f=table:{path}", "alpha=1/3", "x=100"]

    def twisted(path):
        return ["twisted", "f=one", f"h=table:{path}", "q=3", "x=100"]

    no_file = f"cannot read table file {str(missing)!r}: [Errno 2] No such file or directory: {str(missing)!r}"
    cases = [
        (expsum(missing), no_file),
        (expsum(table("short.txt", "# p re im\n\n2 1\n")), "table line needs 'p re im', got '2 1'"),
        (
            expsum(table("int.txt", "2.5 1 0\n")),
            "bad table line '2.5 1 0': invalid literal for int() with base 10: '2.5'",
        ),
        (
            expsum(table("nan.txt", "2 nan 0\n")),
            "bad table line '2 nan 0': non-finite number 'nan'",
        ),
        (expsum(table("order.txt", "3 -1 0\n2 -1 0\n")), "table primes must be ascending, got 2 after 3"),
        (twisted(missing), no_file),
        (
            twisted(table("pshort.txt", "0 1 0 0\n")),
            "periodic table line needs 'n re im', got '0 1 0 0'",
        ),
        (
            twisted(table("pbad.txt", "0 x 0\n")),
            "bad periodic table line '0 x 0': could not convert string to float: 'x'",
        ),
        (
            twisted(table("pinf.txt", "0 1 inf\n")),
            "bad periodic table line '0 1 inf': non-finite number 'inf'",
        ),
        (
            twisted(table("pmiss.txt", "0 1 0\n4 1 0\n")),
            "periodic table must list all 3 residues, got 2",
        ),
    ]
    for args, message in cases:
        rc = main(args)
        err = capsys.readouterr().err
        assert rc == 2 and err == f"parse error: {message}\n", (args, rc, err)
    ok = table("periodic.txt", "# n re im\n\n0 1 0\n  1 0.5 -0.5\n5 -1 0\n")
    assert main([*twisted(ok), "J=1"]) == 0
    assert capsys.readouterr().err == ""


ARGV_VALUES = ["-5", "-1", "0", "1", "2", "3", "7", "100", "0.5", "1/0", "3/0", "nan", "x", ""]
ARGV_FUNCTIONS = ["one", "minus-all", "legendre:5", "char:5:1", "randpm:3*nit:0.5"]
ARGV_PERIODIC = ["one", "kloosterman:1,1", "expmod:poly=1,2,0", "charshift:1:2"]
ARGV_MALFORMED = ["legendre:4", "char:5:x", "nope:3", "one*", ""]
# the keys each handler reads; test_argv_keys_are_the_keys_handlers_read
# fails when a handler gains or drops one
ARGV_KEYS = {
    "expsum": ["f", "x", "alpha", "eps", "J", "grid"],
    "pretend": ["f", "x", "q", "J"],
    "oscint": ["x", "beta", "t"],
    "triples": ["f", "g", "h", "a", "b", "c", "x", "z"],
    "partition": ["f", "g", "h", "N", "z"],
    "arcs": ["alpha", "x", "eps"],
    "energy": ["f", "x", "grid", "eps"],
    "twisted": ["f", "h", "q", "x", "J"],
}


class _RecordingKV(dict):
    """A kv dict that records every key looked up or tested."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_argv_keys_are_the_keys_handlers_read():
    """ARGV_KEYS lists exactly the keys each handler reads, over all of its
    actions, when given a valid value for every listed key."""
    actions = {"expsum": ["direct", "predict", "scan"]}
    valid = {"f": "one", "g": "one", "h": "one", "x": "100", "eps": "0.5"}
    for cmd in sorted(set(SUBCOMMANDS) - {"constants"}):
        read = set()
        for action in actions.get(cmd, [None]):
            grid = "201" if cmd == "energy" else "7"  # energy needs 2x + 1
            kv = _RecordingKV({k: valid.get(k, grid if k == "grid" else "7") for k in ARGV_KEYS[cmd]})
            handler = SUBCOMMANDS[cmd]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if action is None:
                    handler(kv)
                else:
                    handler(kv, action=action)
            read |= kv.read
        assert read == set(ARGV_KEYS[cmd]), cmd


@st.composite
def cli_argv(draw):
    """An argv from the subcommand table (bar `constants`, which reads no
    input) with the keys its handler reads: at most one left out, at most two
    drawn from the full value or spec list and the rest valid, and maybe an
    unknown key.  Every size stays <= 100."""
    cmd = draw(st.sampled_from(sorted(set(SUBCOMMANDS) - {"constants"})))
    argv = [cmd]
    if cmd == "expsum":
        argv.append(draw(st.sampled_from(["direct", "predict", "scan", "sideways"])))
    keys = ARGV_KEYS[cmd]
    omitted = draw(st.lists(st.sampled_from(keys), max_size=1))
    wild = draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
    for key in keys + draw(st.lists(st.just("bogus"), max_size=1)):
        if key in omitted:
            continue
        if key == "h" and cmd == "twisted":
            valid = ARGV_PERIODIC
        elif key in ("f", "g", "h"):
            valid = ARGV_FUNCTIONS
        else:
            valid = ["0.5", "1"] if key == "eps" else ["3", "7", "100"]
        if key in wild:
            valid = valid + (ARGV_MALFORMED if key in ("f", "g", "h") else ARGV_VALUES)
        argv.append(f"{key}={draw(st.sampled_from(valid))}")
    fmt = draw(st.sampled_from([None, "json", "csv", "xml"]))
    return argv if fmt is None else [*argv, "--format", fmt]


def _stderr_warnings(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_cli_argv_exits_cleanly(argv):
    """Whatever the argv, main returns 0, 1 or 2 without an exception; a
    failure is one stderr line, and a success writes only warnings there."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        warnings.showwarning = _stderr_warnings
        rc = main(argv)
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2), (argv, rc)
    if rc:
        assert len(lines) == 1, (argv, lines)
    else:
        assert all(line.startswith("warning: ") for line in lines), (argv, lines)
