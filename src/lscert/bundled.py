"""Access to the certificates and stepsize patterns shipped with the package.

patterns.json registers each pattern's h. Where certs/<id>.json ships, that
certificate is the only source of the pattern's Delta and eps; the registry
holds a delta and epsilon only for patterns without one, as reported values.
The data directory can be overridden with the LSCERT_DATA environment
variable (same layout: patterns.json plus certs/<id>.json).
"""
from __future__ import annotations

import json
import os
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .certificate import Certificate, CertificateError, load_certificate
from .exact_linalg import rat_from_decimal
from .pep_builder import StepsizePattern

ENV_VAR = "LSCERT_DATA"


def data_dir() -> Path:
    override = os.environ.get(ENV_VAR)
    if override:
        p = Path(override)
        if not p.is_dir():
            raise FileNotFoundError(f"{ENV_VAR} points at {p}, which is not a directory")
        return p
    return Path(resources.files("lscert") / "data")


def pattern_registry() -> dict[str, dict]:
    reg_path = data_dir() / "patterns.json"
    return json.loads(reg_path.read_text())


def pattern_ids() -> list[str]:
    return sorted(pattern_registry())


def _registry_entry(pattern_id: str) -> dict:
    reg = pattern_registry()
    if pattern_id not in reg:
        raise KeyError(f"unknown pattern id {pattern_id!r}; available: {sorted(reg)}")
    return reg[pattern_id]


def bundled_pattern(pattern_id: str) -> StepsizePattern:
    return StepsizePattern(tuple(rat_from_decimal(v) for v in _registry_entry(pattern_id)["h"]))


def bundled_pattern_meta(pattern_id: str) -> dict[str, Fraction]:
    """Gap cap ``delta`` and slack ``epsilon`` quoted for the pattern.

    Where certs/<id>.json exists, they are that certificate's own Delta and
    eps, which the tests verify exactly; otherwise they are the registry's
    reported ``delta`` and ``epsilon``, which this package does not verify.
    A certificate whose h is not the registry's pattern raises
    CertificateError, and a pattern with neither raises FileNotFoundError
    (the data directory may come from LSCERT_DATA).
    """
    entry = _registry_entry(pattern_id)
    path = certificate_path(pattern_id)
    if not path.is_file():
        if not {"delta", "epsilon"} <= entry.keys():
            raise FileNotFoundError(f"no certificate {path}, and registry pattern "
                                    f"{pattern_id} reports no delta and epsilon")
        return {"delta": rat_from_decimal(entry["delta"]),
                "epsilon": rat_from_decimal(entry["epsilon"])}
    cert, pattern = load_certificate(path), bundled_pattern(pattern_id)
    if cert.pattern != pattern:
        raise CertificateError(
            f"{path}: certificate pattern h=({cert.pattern.as_text()}) is not registry "
            f"pattern {pattern_id} h=({pattern.as_text()})")
    return {"delta": cert.Delta, "epsilon": cert.epsilon}


def certificate_path(pattern_id: str) -> Path:
    return data_dir() / "certs" / f"{pattern_id}.json"


def certificate_ids() -> list[str]:
    certs = data_dir() / "certs"
    if not certs.is_dir():
        return []
    return sorted(p.stem for p in certs.glob("*.json"))


def bundled_certificate(pattern_id: str) -> Certificate:
    path = certificate_path(pattern_id)
    if not path.is_file():
        raise FileNotFoundError(
            f"no bundled certificate {pattern_id!r}; available: {certificate_ids()}")
    return load_certificate(path)
