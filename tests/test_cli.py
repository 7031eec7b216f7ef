import io
import json
import subprocess
import sys
import warnings
from contextlib import redirect_stdout
from fractions import Fraction

import jsonschema

from pretsums.cli import _fmt, main
from pretsums.expsum import arc_decompose_Rf, classify_alpha
from pretsums.funcspec import parse_multfunc

PREDICTION_SCHEMA = {
    "type": "object",
    "required": ["oracle", "predicted", "terms", "err_budget", "abs_discrepancy"],
    "properties": {
        "oracle": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        "predicted": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["j", "chi", "r", "t", "coefficient", "I", "S", "value"],
            },
        },
        "abs_discrepancy": {"type": "number"},
        "rel_discrepancy": {"type": "number"},
    },
}

ARC_SCHEMA = {
    "type": "object",
    "required": ["alpha", "a", "q", "beta", "regime", "Q", "Q1", "Q3"],
    "properties": {
        "a": {"type": "integer"},
        "q": {"type": "integer", "minimum": 1},
        "regime": {"enum": ["major", "minor"]},
    },
}

CONSTANTS_SCHEMA = {
    "type": "object",
    "required": [
        "delta0",
        "kappa",
        "kappa_prime",
        "C2_product",
        "eight_forty_fifths",
        "two_minus_one_max",
        "mixed_max",
    ],
}

TRIPLES_SCHEMA = {
    "type": "object",
    "required": ["oracle_density", "predicted_density", "factors", "path", "rel_discrepancy"],
}

ENERGY_SCHEMA = {
    "type": "object",
    "required": ["x", "M", "total_energy", "minor_energy", "major_energy", "minor_ratio"],
}


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
