import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import lscert.pep_builder
from lscert.bundled import (bundled_pattern, bundled_pattern_meta, certificate_path,
                            pattern_ids)
from lscert.cli import EXIT_FALSE, EXIT_OK, EXIT_USAGE, _fixed_up, _sci_up, main
from lscert.exact_linalg import rat_from_decimal, rat_to_str
from lscert.pep_builder import StepsizePattern, mat_pos
from lscert.rates import ProblemScale, bound_at, rate_guarantee
from oracles import interpolation_matrix, pep_matrices


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_bundled_t3_passes(self, capsys):
        code, out, _ = run(capsys, "verify", str(certificate_path("t3")))
        assert code == EXIT_OK
        assert "epsilon-straightforward with eps=0" in out

    def test_corrupted_entry_fails_named_condition(self, capsys, tmp_path):
        obj = json.loads(certificate_path("t3").read_text())
        obj["lambda"][1][2] = "-" + obj["lambda"][1][2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == EXIT_FALSE
        assert "lambda_nonneg" in out

    def test_recompute_eps(self, capsys):
        code, out, _ = run(capsys, "verify", str(certificate_path("t7")),
                           "--recompute-eps")
        assert code == EXIT_OK
        assert "eps_min" in out

    def test_recompute_eps_reuses_the_membership_eliminations(self, capsys, monkeypatch):
        # one operator per file, two M_rows calls: eps_min is read off the report
        calls = []
        real = lscert.pep_builder.M_rows

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lscert.pep_builder, "M_rows", counted)
        code, out, _ = run(capsys, "verify", "--recompute-eps",
                           str(certificate_path("t7")), str(certificate_path("t15")))
        assert code == EXIT_OK and out.count("eps_min") == 2
        assert len(calls) == 4

    def test_pointwise_flag(self, capsys):
        code, out, _ = run(capsys, "verify", str(certificate_path("t3")),
                           "--pointwise", "8", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["certificates"][0]["pointwise_checks"] == 9
        assert obj["certificates"][0]["pointwise_ok"]

    def test_negative_pointwise_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", str(certificate_path("t3")),
                             "--pointwise", "-3", "--json")
        assert code == EXIT_USAGE
        assert "--pointwise -3" in err and not out

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{weird")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == EXIT_USAGE
        assert "junk.json" in err

    def hostile(self, capsys, tmp_path, edit, text=None) -> tuple[int, str]:
        obj = json.loads(certificate_path("t3").read_text())
        edit(obj)
        bad = tmp_path / "hostile.json"
        bad.write_text(text if text is not None else json.dumps(obj))
        code, _, err = run(capsys, "verify", str(bad))
        assert "set_int_max_str_digits" not in err and "internal error" not in err
        return code, err

    def test_boolean_t_exits_2(self, capsys, tmp_path):
        code, err = self.hostile(capsys, tmp_path, lambda o: o.update(t=True))
        assert code == EXIT_USAGE
        assert ".t: expected a positive integer, got True" in err

    def test_t_above_127_exits_2(self, capsys, tmp_path):
        code, err = self.hostile(capsys, tmp_path, lambda o: o.update(t=128))
        assert code == EXIT_USAGE
        assert "t = 127" in err

    def test_5000_digit_entry_exits_2(self, capsys, tmp_path):
        code, err = self.hostile(capsys, tmp_path,
                                 lambda o: o["h"].__setitem__(0, "1" * 5000))
        assert code == EXIT_USAGE
        assert "h[0]" in err and "exceeds the limit of 2000" in err

    def test_5000_digit_json_number_exits_2(self, capsys, tmp_path):
        text = certificate_path("t3").read_text().replace('"t": 3', '"t": ' + "3" * 5000)
        code, err = self.hostile(capsys, tmp_path, lambda o: None, text)
        assert code == EXIT_USAGE
        assert "too many digits" in err

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        code, err = self.hostile(capsys, tmp_path, lambda o: None, "[" * 200000 + "]" * 200000)
        assert code == EXIT_USAGE
        assert "nested too deeply" in err

    def test_batch_jobs(self, capsys):
        code, out, _ = run(capsys, "verify", str(certificate_path("t2")),
                           str(certificate_path("t3")), "--jobs", "2")
        assert code == EXIT_OK
        assert out.count("PASS") == 2

    def test_seeded_corruption_always_exits_1(self, capsys, tmp_path):
        # property: corrupting any single multiplier entry gives exit 1, never 0 or 3
        rng = random.Random(20240613)
        base = json.loads(certificate_path("t3").read_text())
        dim = base["t"] + 2
        for trial in range(6):
            obj = json.loads(json.dumps(base))
            which = rng.choice(["lambda", "gamma"])
            i = rng.randrange(dim)
            j = rng.randrange(dim)
            if i == j:
                j = (j + 1) % dim
            obj[which][i][j] = str(rng.randrange(1, 50)) + "/7"
            bad = tmp_path / f"corrupt{trial}.json"
            bad.write_text(json.dumps(obj))
            code, _, _ = run(capsys, "verify", str(bad))
            assert code == EXIT_FALSE

    def test_json_schema_version(self, capsys):
        code, out, _ = run(capsys, "verify", str(certificate_path("t3")), "--json")
        assert json.loads(out)["schema_version"] == 3


KEYS = ("t", "h", "delta", "epsilon", "lambda", "gamma")
BUNDLED_DOCS = {pid: certificate_path(pid).read_text() for pid in ("t2", "t3", "t7")}
OTHER_TYPES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                        st.text(max_size=4), st.just([]), st.just({}),
                        st.lists(st.just("1"), max_size=3))


def mutate(data, obj: dict) -> None:
    """One hostile edit: drop a key, change `t`, change a row length, give a
    value another type, or perturb a rational entry."""
    kind = data.draw(st.sampled_from(["drop", "t", "row", "retype", "perturb"]))
    if kind == "drop":
        del obj[data.draw(st.sampled_from(KEYS))]
    elif kind == "t":
        obj["t"] = data.draw(st.integers(-1, 130))
    elif kind == "row":
        m = obj[data.draw(st.sampled_from(["lambda", "gamma"]))]
        row = m[data.draw(st.integers(0, len(m) - 1))]
        if data.draw(st.booleans()):
            row.append("0")
        else:
            row.pop()
    else:
        holder, idx = obj, data.draw(st.sampled_from(KEYS[1:]))
        # descend into a list (h, a matrix, a matrix row) most of the time
        while isinstance(holder[idx], list) and holder[idx] and data.draw(st.integers(0, 3)):
            holder, idx = holder[idx], data.draw(st.integers(0, len(holder[idx]) - 1))
        if kind == "retype":
            holder[idx] = data.draw(OTHER_TYPES)
        elif isinstance(holder[idx], str):
            v = rat_from_decimal(holder[idx])
            d = Fraction(data.draw(st.integers(-3, 3)), 2 ** data.draw(st.integers(0, 64)))
            holder[idx] = rat_to_str(v * (1 + d) if data.draw(st.booleans()) else v + d)


class TestHostileMutants:
    @settings(max_examples=150, deadline=10_000, derandomize=True, database=None)
    @given(data=st.data())
    def test_verify_exits_0_1_or_2(self, data):
        # property: `lscert verify` decides or refuses any single hostile edit
        # of a bundled document, with a plain message and no traceback
        obj = json.loads(BUNDLED_DOCS[data.draw(st.sampled_from(sorted(BUNDLED_DOCS)))])
        mutate(data, obj)
        flags = data.draw(st.sampled_from([[], ["--recompute-eps"], ["--pointwise", "2", "--json"]]))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "mutant.json"
            path.write_text(json.dumps(obj))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["verify", str(path), *flags])
        assert code in (EXIT_OK, EXIT_FALSE, EXIT_USAGE), err.getvalue()
        assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()
        assert (code == EXIT_USAGE) == bool(err.getvalue())


@st.composite
def long_literals(draw, size: int = 2000) -> str:
    """A rational literal of exactly ``size`` characters: an integer, a
    decimal or a "p/q", signed or not, its digits drawn from a seeded stream."""
    kind = draw(st.sampled_from(["int", "decimal", "fraction"]))
    sign = draw(st.sampled_from(["", "-"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def digits(n: int) -> str:
        return str(rng.randrange(1, 10)) + "".join(rng.choice("0123456789") for _ in range(n - 1))

    n = size - len(sign)
    if kind == "int":
        return sign + digits(n)
    k = draw(st.integers(1, n - 2))
    if kind == "decimal":
        return sign + (digits(k) if draw(st.booleans()) else "0" * k) + "." + digits(n - k - 1)
    return sign + digits(k) + "/" + digits(n - k - 1)


class TestLiteralsPastTheFloatRange:
    def test_huge_slack_verifies_with_its_exact_coefficient(self, capsys, tmp_path):
        # the rate coefficient avg(h) - eps has no float: JSON writes null and
        # the text line writes the exact rational in its place
        obj = json.loads(certificate_path("t3").read_text())
        obj["epsilon"] = "1" + "0" * 1999
        path = tmp_path / "t3_huge_eps.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "verify", str(path))
        exact = rat_to_str(Fraction(79, 30) - 10 ** 1999)
        assert code == EXIT_OK and out.rstrip().endswith(f"{exact} ~= {exact})")
        code, out, _ = run(capsys, "verify", "--recompute-eps", "--json", str(path))
        entry = json.loads(out)["certificates"][0]
        assert code == EXIT_OK
        assert entry["rate_coefficient"] == exact and entry["rate_coefficient_float"] is None
        assert entry["eps_min_float"] == 0.0

    @pytest.mark.parametrize("field", ["epsilon", "delta", "multiplier"])
    @pytest.mark.parametrize("pid", ["t2", "t3", "t7", "t15"])
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_2000_character_literals_never_exit_3(self, pid, field, data):
        obj = json.loads(certificate_path(pid).read_text())
        text = data.draw(long_literals())
        if field == "multiplier":
            m = obj[data.draw(st.sampled_from(["lambda", "gamma"]))]
            m[data.draw(st.integers(0, len(m) - 1))][data.draw(st.integers(0, len(m) - 1))] = text
        else:
            obj[field] = text
        flags = data.draw(st.sampled_from([["--recompute-eps"], ["--recompute-eps", "--json"]]))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "long.json"
            path.write_text(json.dumps(obj))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["verify", str(path), *flags])
        assert code in (EXIT_OK, EXIT_FALSE, EXIT_USAGE), err.getvalue()
        if "--json" in flags and code != EXIT_USAGE:
            json.loads(out.getvalue())  # no NaN or Infinity


    @pytest.mark.parametrize("command", ["generate", "generate_delta", "simulate", "rate"])
    def test_400_digit_inputs_of_the_other_commands_exit_2(self, capsys, tmp_path, command):
        # sum h, a step h/L and the contraction factor would each overflow a float
        big = "7" * 400
        if command == "rate":
            obj = json.loads(certificate_path("t3").read_text())
            obj["h"][0] = big
            path = tmp_path / "t3_huge_h0.json"
            path.write_text(json.dumps(obj))
            argv = ["rate", "--cert", str(path), "--T", "3"]
        elif command == "simulate":
            argv = ["simulate", "--pattern", big, "--n", "4", "--iters", "3",
                    "--out", str(tmp_path / "sim.csv")]
        elif command == "generate":
            argv = ["generate", "--pattern", big, "--delta", "0.001"]
        else:
            argv = ["generate", "--pattern", "1", "--delta", big]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE and err.startswith("error: "), err


class TestGenerate:
    def test_unit_pattern(self, capsys, tmp_path):
        out_path = tmp_path / "one.json"
        code, out, _ = run(capsys, "generate", "--pattern", "1",
                           "--delta", "0.01", "--out", str(out_path))
        assert code == EXIT_OK
        assert out_path.exists()
        code, _, _ = run(capsys, "verify", str(out_path))
        assert code == EXIT_OK

    def test_two_step_coefficient(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "--pattern", "2.9,1.5",
                           "--delta", "0.001", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["rate_coefficient_float"] >= 2.2 - 1e-6

    def test_not_found_exits_1(self, capsys):
        code, _, err = run(capsys, "generate", "--pattern", "10,10",
                           "--delta", "0.001")
        assert code == EXIT_FALSE
        assert "best residuals" in err
        solver = json.loads(err.split("solver: ")[1])
        assert solver["status"] == "stalled"
        assert solver["iterations"] > solver["snapshot_iteration"]

    def test_rounding_failure_exits_1(self, capsys):
        # at 4 bits the rounded border leaves the trailing block's range
        code, out, err = run(capsys, "generate", "--pattern", "2.9,1.5", "--delta", "0.001",
                             "--denom-bits", "4")
        assert code == EXIT_FALSE and not out
        assert err.startswith("rounding failed: rounded pair admits no finite epsilon")

    def test_delta_past_cap_exits_2(self, capsys):
        # 1/(2 sum h) = 5/44 for h = (2.9, 1.5); 10^-18 past it is refused
        # exactly, before any search (its float passes the float check)
        delta = f"{5 * 10 ** 18 + 44}/{44 * 10 ** 18}"
        code, _, err = run(capsys, "generate", "--pattern", "2.9,1.5", "--delta", delta)
        assert code == EXIT_USAGE
        assert "exceeds" in err and "not found" not in err

    def test_delta_below_float_range_exits_2(self, capsys):
        # 10^-400 lies in (0, cap) exactly, but its float is 0.0: it is
        # refused before the search, with the exact value in the message
        delta = "1/1" + "0" * 400
        code, out, err = run(capsys, "generate", "--pattern", "1", "--delta", delta)
        assert code == EXIT_USAGE and not out
        assert f"Delta={delta} is below the smallest positive float" in err
        assert "Delta=0.0" not in err

    @pytest.mark.parametrize("flag,value", [("--denom-bits", "-5"), ("--denom-bits", "0"),
                                            ("--max-iters", "-1"), ("--max-iters", "0")])
    def test_nonpositive_count_exits_2(self, capsys, flag, value):
        code, out, err = run(capsys, "generate", "--pattern", "1", "--delta", "0.01",
                             flag, value)
        assert code == EXIT_USAGE
        assert f"{flag[2:].replace('-', '_')}={value}" in err and not out

    def test_bad_pattern_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "--pattern", "1.5,oops",
                           "--delta", "0.001")
        assert code == EXIT_USAGE


class TestRate:
    def test_prints_phases_and_crossover(self, capsys):
        code, out, _ = run(capsys, "rate", "--cert", str(certificate_path("t7")),
                           "--L", "1", "--D", "1", "--f0gap", "1", "--T", "70000")
        assert code == EXIT_OK
        assert "s_bar = 51392" in out
        assert "contraction phase" in out and "sublinear phase" in out
        assert "crossover at T = 359744" in out

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "rate", "--cert", str(certificate_path("t3")),
                           "--T", "300000", "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["phase"] == "sublinear"
        assert 0 < obj["bound"] < 1

    def test_non_multiple_T_exits_2(self, capsys):
        code, _, err = run(capsys, "rate", "--cert", str(certificate_path("t7")),
                           "--T", "12345")
        assert code == EXIT_USAGE
        assert "multiple" in err


def decimal_literal(mantissa: int, exponent: int) -> str:
    """mantissa * 10^exponent as a plain decimal literal (no exponent syntax)."""
    if exponent >= 0:
        return str(mantissa) + "0" * exponent
    digits = str(mantissa).rjust(1 - exponent, "0")
    return f"{digits[:exponent]}.{digits[exponent:]}"


DECIMALS = st.builds(decimal_literal, st.integers(0, 10 ** 6), st.integers(-450, 450))


def rate_in_subprocess(*argv) -> subprocess.CompletedProcess:
    """`lscert rate` in a fresh interpreter; a hang fails the test by timeout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "lscert.cli", "rate", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


class TestRateAtAnyScale:
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(pid=st.sampled_from(["const1", "t2", "t7", "t127"]), L=DECIMALS, D=DECIMALS,
           f0gap=DECIMALS, k=st.integers(1, 10 ** 9))
    def test_exits_0_or_2(self, pid, L, D, f0gap, k):
        T = k * bundled_pattern(pid).t
        proc = rate_in_subprocess("--pattern-id", pid, "--L", L, "--D", D, "--f0gap", f0gap,
                                  "--T", str(T), "--json")
        assert proc.returncode in (EXIT_OK, EXIT_USAGE), proc.stderr
        if proc.returncode == EXIT_OK:
            assert json.loads(proc.stdout)["bound"] >= 0

    def test_bound_below_the_float_range_prints_positive(self):
        tiny = decimal_literal(1, -400)
        proc = rate_in_subprocess("--pattern-id", "t7", "--L", tiny, "--f0gap", tiny,
                                  "--T", "7000000", "--json")
        assert proc.returncode == EXIT_OK, proc.stderr
        obj = json.loads(proc.stdout)
        # the least positive float, printed upward in the text line too
        assert obj["bound"] == obj["sublinear_coefficient"] == 5e-324
        assert obj["summary"].endswith("(sublinear phase): 4.940657e-324")

    @pytest.mark.parametrize("digits", [225, 400])
    def test_large_ratio_crossover(self, digits):
        # f0gap / (L D^2 Delta) = 10^digits: the bound at T = s_bar t is at most L D^2 Delta
        meta = bundled_pattern_meta("t7")
        f0gap = meta["delta"] * 10 ** digits
        B = 1 - (bundled_pattern("t7").sum_h - 7 * meta["epsilon"]) * meta["delta"]
        with mpmath.workdps(600):
            s_bar = int(mpmath.ceil(-digits * mpmath.log(10)
                                    / mpmath.log(mpmath.mpf(B.numerator) / B.denominator)))
        proc = rate_in_subprocess("--pattern-id", "t7", "--f0gap", rat_to_str(f0gap),
                                  "--T", str(7 * s_bar), "--json")
        assert proc.returncode == EXIT_OK, proc.stderr
        obj = json.loads(proc.stdout)
        assert obj["s_bar"] == s_bar and obj["phase"] == "contraction"
        assert obj["bound"] <= float(meta["delta"])


class TestRateRoundsUp:
    """The printed bound and coefficient are never below the exact ones."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(pid=st.sampled_from(["const1", "t2", "t7", "t127"]),
           L=DECIMALS, D=DECIMALS, f0gap=DECIMALS, k=st.integers(1, 10 ** 9))
    def test_printed_values_bound_the_exact_ones(self, pid, L, D, f0gap, k):
        pattern, meta = bundled_pattern(pid), bundled_pattern_meta(pid)
        T = k * pattern.t
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["rate", "--pattern-id", pid, "--L", L, "--D", D, "--f0gap", f0gap,
                         "--T", str(T), "--json"])
        if code != EXIT_OK:
            return
        obj = json.loads(out.getvalue())
        scale = ProblemScale(rat_from_decimal(L), rat_from_decimal(D), rat_from_decimal(f0gap))
        g = rate_guarantee(scale, pattern.sum_h, pattern.t, meta["epsilon"], meta["delta"])
        exact = bound_at(T, scale, g)
        assert Fraction(obj["bound"]) >= exact
        assert Fraction(obj["sublinear_coefficient"]) >= scale.ld2 / g.avg_minus_eps
        assert Fraction(obj["summary"].rsplit(" ", 1)[1]) >= Fraction(obj["bound"])
        if exact > 0:
            assert obj["bound"] > 0

    @pytest.mark.parametrize("value", [0.0, 5e-324, 1e-5, 0.1, 1 / 3, 2 / 3,
                                       1.7976931348623157e308])
    def test_text_form_rounds_up(self, value):
        near, text = f"{value:.6e}", _sci_up(value)
        assert Fraction(text) >= Fraction(value)
        if Fraction(near) >= Fraction(value):
            assert text == near
        else:  # one unit up in the last digit, in the same form
            mantissa, exponent = near.split("e")
            assert text == f"{float(mantissa) + 1e-6:.6f}e{exponent}"

    def test_text_form_carries_into_the_exponent(self):
        value = float(Fraction("9.9999991e-3"))
        assert f"{value:.6e}" == "9.999999e-03"
        assert _sci_up(value) == "1.000000e-02"

    @pytest.mark.parametrize("pid", pattern_ids())
    def test_contraction_factor_bounds_the_exact_one(self, capsys, pid):
        pattern, meta = bundled_pattern(pid), bundled_pattern_meta(pid)
        code, out, _ = run(capsys, "rate", "--pattern-id", pid, "--T", str(pattern.t), "--json")
        assert code == EXIT_OK
        obj = json.loads(out)
        exact = rate_guarantee(ProblemScale(Fraction(1), Fraction(1), Fraction(1)), pattern.sum_h,
                               pattern.t, meta["epsilon"], meta["delta"]).contraction_factor
        text = obj["summary"].split("gap <= ", 1)[1].split("^s", 1)[0]
        assert Fraction(obj["contraction_factor_per_application"]) >= exact
        assert exact <= Fraction(text) < exact + Fraction(1, 10 ** 9)
        assert len(text.split(".")[1]) == 9

    def test_t7_contraction_factor_text_rounds_up(self, capsys):
        # exact 0.99977600000007..., which rounding to nearest printed as 0.999776000
        code, out, _ = run(capsys, "rate", "--pattern-id", "t7", "--T", "7")
        assert code == EXIT_OK and "gap <= 0.999776001^s * f0gap" in out

    @pytest.mark.parametrize("q, text", [(Fraction(1, 3), "0.334"), (Fraction(1, 2), "0.500"),
                                         (Fraction(-1, 3), "-0.333"), (Fraction(-1, 2000), "0.000"),
                                         (Fraction(7), "7.000")])
    def test_fixed_up(self, q, text):
        assert _fixed_up(q, 3) == text


class TestSimulate:
    def test_writes_csv_and_descriptor(self, capsys, tmp_path):
        out = tmp_path / "run.csv"
        code, _, _ = run(capsys, "simulate", "--problem", "lsq", "--n", "30",
                         "--seed", "42", "--pattern-id", "t3", "--iters", "60",
                         "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iter,gap"
        assert len(lines) == 62
        desc = json.loads(out.with_suffix(".descriptor.json").read_text())
        assert desc["problem"]["generator"] == "pcg64-box-muller"

    def test_unknown_pattern_id(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--pattern-id", "nope",
                           "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert "nope" in err


class TestDumpPep:
    def test_stdout_json(self, capsys):
        code, out, _ = run(capsys, "dump-pep", "--pattern", "1.5,4.9,1.5")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["schema_version"] == 3
        assert obj["t"] == 3
        assert obj["pairs"]["*,0"]["a"] == ["1", "0", "0", "0"]
        # the pair (0, *) has A = 0 and C = (g_0)(g_0)': one entry, 1/2 at g_0's position
        assert obj["pairs"]["0,*"] == {"pos": [1, 0], "a": ["-1", "0", "0", "0"],
                                       "A_plus_half_C": [[1, 1, "1/2"]]}

    def test_json_envelope_carries_the_document(self, capsys, tmp_path):
        # the document is an object under "pep" and the summary is the --out line
        code, out, _ = run(capsys, "dump-pep", "--pattern", "1.5,4.9,1.5", "--json")
        assert code == EXIT_OK
        env = json.loads(out)
        _, plain, _ = run(capsys, "dump-pep", "--pattern", "1.5,4.9,1.5")
        assert env["pep"] == json.loads(plain)
        path = tmp_path / "pep.json"
        _, to_file, _ = run(capsys, "dump-pep", "--pattern", "1.5,4.9,1.5", "--out", str(path),
                            "--json")
        assert env["summary"] == json.loads(to_file)["summary"] == "PEP data for h=(3/2,49/10,3/2)"
        assert env["schema_version"] == 3 and env["t"] == 3

    @pytest.mark.parametrize("source", [("--pattern", "1.5,4.9,1.5"), ("--pattern-id", "t7"),
                                        ("--pattern", "1,0.5,2")])
    def test_every_pair_matches_the_dense_oracle(self, capsys, source):
        code, out, _ = run(capsys, "dump-pep", *source)
        assert code == EXIT_OK
        obj = json.loads(out)
        h = StepsizePattern.from_text(",".join(obj["h"]))
        t = h.t
        dense = pep_matrices(h)
        assert list(obj["pairs"]) == [f"{i},{j}" for i, j in dense]
        for (i, j), pm in dense.items():
            entry = obj["pairs"][f"{i},{j}"]
            assert entry["pos"] == [mat_pos(i, t), mat_pos(j, t)]
            assert tuple(rat_from_decimal(v) for v in entry["a"]) == pm["a"]
            K = interpolation_matrix(pm)
            assert {(r, c): rat_from_decimal(v) for r, c, v in entry["A_plus_half_C"]} == {
                (r, c): v for r in range(t + 2) for c, v in enumerate(K.row(r)) if v}

    def test_bundled_t31(self, capsys, tmp_path):
        # the pair table is O(t^2) terms per pair; the dense matrices were O(t^4)
        path = tmp_path / "pep.json"
        code, out, _ = run(capsys, "dump-pep", "--pattern-id", "t31", "--out", str(path))
        assert code == EXIT_OK and str(path) in out
        obj = json.loads(path.read_text())
        assert obj["t"] == 31 and len(obj["pairs"]) == 33 * 32
        assert obj["pairs"]["31,*"]["A_plus_half_C"] == [[32, 32, "1/2"]]


QUERY_BLAS_THREADS = """
import ctypes
from pathlib import Path
import lscert
import numpy as np
libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
for so in sorted(libdir.glob("libscipy_openblas*.so*")):
    lib = ctypes.CDLL(str(so))
    for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, fn):
            print(getattr(lib, fn)())
            raise SystemExit
print(0)
"""


class TestBlasThreadPin:
    """Importing lscert before numpy pins one OpenBLAS thread unless the
    environment sets a count, so generated certificates repeat."""

    def threads(self, value):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", QUERY_BLAS_THREADS], env=env,
                             capture_output=True, text=True, check=True).stdout
        n = int(out)
        if n == 0:
            pytest.skip("numpy's OpenBLAS thread count cannot be queried here")
        return n

    def test_unset_means_one_thread(self):
        assert self.threads(None) == 1

    def test_environment_wins(self):
        assert self.threads("2") == 2
