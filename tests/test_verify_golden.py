"""`lscert verify --recompute-eps --pointwise 4` pinned to a golden file.

The documents are the four bundled certificates, one altered copy of each
(two moved multiplier entries and two slacks below their exact minimum),
two hostile copies of t7 whose 2000-character literals put the integer
blocks past the float range, a copy of t3 whose Delta lies past its gap
window (lambda >= 0 holds, lambda + Delta*gamma >= 0 fails), t3 written in
decimal literals, and one two-step family certificate. Every output (JSON
without ``schema_version``, and text) and exit code must equal the golden
file's. To rewrite the golden file from the checkout on the path:

    PYTHONPATH=src python tests/test_verify_golden.py --write
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lscert.certificate as cm
from lscert import bundled
from lscert.exact_linalg import rat_from_decimal
from lscert.two_step import two_step_certificate
from lscert.cli import EXIT_INTERNAL, main

GOLDEN = Path(__file__).with_name("verify_golden.json")
ARGS = ["verify", "--recompute-eps", "--pointwise", "4"]


def _decimal(text: str) -> str:
    """A rational literal as a decimal literal ("39/20" -> "1.95") where it has
    one, else unchanged."""
    v = rat_from_decimal(text)
    places = 0
    while (v * 10 ** places).denominator != 1:
        if places > 40:
            return text
        places += 1
    digits = str(abs(v.numerator * 10 ** places // v.denominator)).rjust(places + 1, "0")
    sign = "-" if v < 0 else ""
    return sign + (f"{digits[:-places]}.{digits[-places:]}" if places else digits)


def _documents() -> dict[str, dict]:
    base = {pid: json.loads(bundled.certificate_path(pid).read_text())
            for pid in ("t2", "t3", "t7", "t15")}
    docs = dict(base)

    def altered(pid: str, edit) -> dict:
        obj = json.loads(json.dumps(base[pid]))
        edit(obj)
        return obj

    def move(which: str, i: int, j: int, by: Fraction):
        def edit(obj):
            v = Fraction(obj[which][i][j]) + by
            obj[which][i][j] = f"{v.numerator}/{v.denominator}"
        return edit

    def set_eps(text: str):
        def edit(obj):
            obj["epsilon"] = text
        return edit

    docs["t2_gamma_moved"] = altered("t2", move("gamma", 1, 2, Fraction(1, 2 ** 30)))
    docs["t3_lambda_moved"] = altered("t3", move("lambda", 2, 3, Fraction(-1, 2 ** 20)))
    docs["t7_eps_zero"] = altered("t7", set_eps("0"))              # eps_min ~ 1.57e-10
    docs["t15_eps_below_min"] = altered("t15", set_eps("1/20000"))  # eps_min ~ 5.42e-5
    # hostile: a slack just above the stored 1e-9 over a 997-digit denominator
    q = 10 ** 996 + 7
    docs["t7_eps_2000_chars"] = altered("t7", set_eps(f"{q // 10 ** 9 + 1}/{q}"))
    # hostile: a multiplier entry of 2000 nines
    docs["t7_gamma_2000_chars"] = altered("t7", lambda obj: obj["gamma"][1].__setitem__(3, "9" * 2000))
    # t3's gap window ends near 2.84e-4, below this Delta and the cap 5/79
    docs["t3_delta_past_window"] = altered("t3", lambda obj: obj.__setitem__("delta", "1/1000"))

    def decimals(obj):
        for key in ("h", "lambda", "gamma"):
            obj[key] = [[_decimal(v) for v in r] if isinstance(r, list) else _decimal(r)
                        for r in obj[key]]
        obj["delta"], obj["epsilon"] = _decimal(obj["delta"]), _decimal(obj["epsilon"])

    docs["t3_decimal"] = altered("t3", decimals)
    docs["two_step_eta_1"] = cm._cert_to_obj(two_step_certificate(Fraction(1)))
    return docs


def _verify(path: Path, as_json: bool) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*ARGS, *(["--json"] if as_json else []), str(path)])
    return code, out.getvalue()


def outputs(workdir: Path) -> dict[str, dict]:
    """name -> exit code, JSON output and text output, with the file path
    written as the document's name."""
    result = {}
    for name, obj in _documents().items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(obj, indent=1))
        code, text = _verify(path, as_json=False)
        json_code, raw = _verify(path, as_json=True)
        payload = json.loads(raw.replace(str(path), name))
        payload.pop("schema_version")
        result[name] = {"exit_code": code, "json_exit_code": json_code, "json": payload,
                        "text": text.replace(str(path), name)}
    return result


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("verify_golden"))


@pytest.mark.parametrize("name", list(_documents()))
def test_matches_golden(current, name):
    golden = json.loads(GOLDEN.read_text())
    assert current[name] == golden[name]


@pytest.mark.parametrize("name", ["t7_eps_2000_chars", "t7_gamma_2000_chars"])
def test_literals_past_the_float_range_fall_back_to_elimination(monkeypatch, tmp_path, name):
    proposals = []
    real = cm._propose_factor
    monkeypatch.setattr(cm, "_propose_factor", lambda K: proposals.append(real(K)) or proposals[-1])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_documents()[name]))
    code, _ = _verify(path, as_json=True)
    assert None in proposals  # a float overflow, so elimination decided
    assert code == json.loads(GOLDEN.read_text())[name]["json_exit_code"] != EXIT_INTERNAL


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        GOLDEN.write_text(json.dumps(outputs(Path(d)), indent=1, sort_keys=True) + "\n")
