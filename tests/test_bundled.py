import json
import shutil
from fractions import Fraction

import pytest

from lscert import bundled
from lscert.certificate import CertificateError, check_membership, save_certificate
from lscert.exact_linalg import rat_from_decimal
from lscert.two_step import two_step_certificate


def test_pattern_registry_covers_table(monkeypatch):
    monkeypatch.delenv(bundled.ENV_VAR, raising=False)
    ids = bundled.pattern_ids()
    assert {"const1", "t2", "t3", "t7", "t15", "t31", "t63", "t127"} <= set(ids)
    for pid in ids:
        pattern = bundled.bundled_pattern(pid)
        meta = bundled.bundled_pattern_meta(pid)
        assert pattern.t >= 1
        assert 0 < meta["delta"] <= 1
        assert meta["epsilon"] >= 0


def test_pattern_lengths_match_ids():
    for pid in ("t2", "t3", "t7", "t15", "t31", "t63", "t127"):
        assert bundled.bundled_pattern(pid).t == int(pid[1:])


def test_all_bundled_certificates_verify_exactly():
    for pid in bundled.certificate_ids():
        cert = bundled.bundled_certificate(pid)
        assert check_membership(cert).overall, f"{pid} failed exact verification"


def test_certificates_are_the_only_source_of_their_delta_and_epsilon(monkeypatch):
    # where a certificate ships, the registry holds its h only, and the quoted
    # Delta and eps are the certificate's; elsewhere they are the registry's
    monkeypatch.delenv(bundled.ENV_VAR, raising=False)
    reg = bundled.pattern_registry()
    certified = bundled.certificate_ids()
    assert {"t2", "t3", "t7", "t15"} <= set(certified)
    for pid in bundled.pattern_ids():
        meta = bundled.bundled_pattern_meta(pid)
        if pid in certified:
            cert = bundled.bundled_certificate(pid)
            assert set(reg[pid]) == {"h"}
            assert meta == {"delta": cert.Delta, "epsilon": cert.epsilon}
            assert bundled.bundled_pattern(pid) == cert.pattern
        else:
            assert meta == {"delta": rat_from_decimal(reg[pid]["delta"]),
                            "epsilon": rat_from_decimal(reg[pid]["epsilon"])}


def test_certificate_of_another_pattern_is_refused(tmp_path, monkeypatch):
    alt = tmp_path / "data"
    shutil.copytree(bundled.data_dir(), alt)
    reg = json.loads((alt / "patterns.json").read_text())
    reg["t3"]["h"] = ["1.5", "4.8", "1.5"]
    (alt / "patterns.json").write_text(json.dumps(reg))
    monkeypatch.setenv(bundled.ENV_VAR, str(alt))
    with pytest.raises(CertificateError, match=r"h=\(3/2,49/10,3/2\) is not registry "
                                               r"pattern t3 h=\(3/2,24/5,3/2\)"):
        bundled.bundled_pattern_meta("t3")
    assert bundled.bundled_pattern_meta("t7") == {"delta": Fraction(1, 10 ** 5),
                                                   "epsilon": Fraction(1, 10 ** 9)}


def test_certified_pattern_without_its_certificate_is_refused(tmp_path, monkeypatch):
    alt = tmp_path / "data"
    shutil.copytree(bundled.data_dir(), alt)
    (alt / "certs" / "t3.json").unlink()
    monkeypatch.setenv(bundled.ENV_VAR, str(alt))
    with pytest.raises(FileNotFoundError, match="registry pattern t3 reports no delta"):
        bundled.bundled_pattern_meta("t3")


def test_t2_certificate_is_reproduced_byte_for_byte(tmp_path):
    # the two-step family at eta = 1/10, Delta by dyadic bisection
    out = tmp_path / "t2.json"
    save_certificate(two_step_certificate(Fraction(1, 10)), out)
    assert out.read_bytes() == bundled.certificate_path("t2").read_bytes()


def test_env_var_overrides_data_dir(tmp_path, monkeypatch):
    alt = tmp_path / "data"
    shutil.copytree(bundled.data_dir(), alt)
    reg = json.loads((alt / "patterns.json").read_text())
    reg["custom99"] = {"h": ["1.25"], "delta": "0.01", "epsilon": "0"}
    (alt / "patterns.json").write_text(json.dumps(reg))
    monkeypatch.setenv(bundled.ENV_VAR, str(alt))
    assert "custom99" in bundled.pattern_ids()
    assert bundled.bundled_pattern("custom99").as_text() == "5/4"
    monkeypatch.setenv(bundled.ENV_VAR, str(tmp_path / "missing"))
    with pytest.raises(FileNotFoundError):
        bundled.data_dir()


def test_unknown_ids_raise():
    with pytest.raises(KeyError):
        bundled.bundled_pattern("t999")
    with pytest.raises(FileNotFoundError):
        bundled.bundled_certificate("t999")
