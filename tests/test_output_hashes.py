"""The stripping and joining helpers of ``scripts/output_hashes.py``, and the
seven output hashes it prints, pinned."""

import hashlib
import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_hashes.py"
_spec = importlib.util.spec_from_file_location("output_hashes", SCRIPT)
output_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_hashes)


def test_strip_times_drops_every_wall_time():
    doc = {
        "kind": "verify-report",
        "reports": [
            {"check": "a", "wall_time_s": 0.5, "residuals": [{"wall_time_s": 1}]},
            {"check": "b", "wall_time_s": 0.25},
        ],
        "wall_time_s": 2,
        "ok": True,
    }
    assert output_hashes.strip_times(doc) == {
        "kind": "verify-report",
        "reports": [{"check": "a", "residuals": [{}]}, {"check": "b"}],
        "ok": True,
    }
    assert doc["wall_time_s"] == 2  # the input is left alone


def test_verify_piece_ignores_times_and_key_order():
    one = json.dumps({"ok": True, "reports": [{"check": "a", "wall_time_s": 0.1}]})
    two = json.dumps({"reports": [{"wall_time_s": 9.0, "check": "a"}], "ok": True}, indent=2)
    assert output_hashes.verify_piece(one) == output_hashes.verify_piece(two)
    assert output_hashes.verify_piece(one) == '{"ok": true, "reports": [{"check": "a"}]}'


def test_digest_joins_pieces_with_no_separator():
    want = hashlib.sha256(b"ab\nexit=0\ncd").hexdigest()[:16]
    assert output_hashes.digest(["ab\nexit=0\n", "cd"]) == want
    assert output_hashes.digest(["a", "bc"]) == output_hashes.digest(["ab", "c"])
    assert len(output_hashes.digest([])) == 16


def test_timeless_reports_zero_every_wall_time():
    doc = json.dumps(
        {
            "kind": "verify-report",
            "reports": [
                {"check": "a", "family": "Uz", "order": 3, "status": "pass",
                 "residuals": [], "wall_time_s": 0.5},
                {"check": "b", "family": "IIs", "order": None, "status": "finding",
                 "residuals": ["x: 1"], "wall_time_s": 2.25},
            ],
        }
    )
    reports = output_hashes.timeless_reports(doc)
    assert [(r.check, r.order, r.status, r.residuals) for r in reports] == [
        ("a", 3, "pass", ()),
        ("b", None, "finding", ("x: 1",)),
    ]
    assert all(r.wall_time_s == 0.0 for r in reports)


def test_r_argument_fills_unlisted_slots_with_zero():
    fam = output_hashes.FAMILIES["II-nonstandard"]
    assert output_hashes.r_argument(fam) == "0,0,x,0,bp,yp"
    assert output_hashes.r_argument(output_hashes.FAMILIES["Iplus-nonstandard"]) == "ap,0,x,-x,bp,x^2/ap"


# The seven outputs as the program prints them.  A change that moves one on
# purpose updates its prefix here and states the new one.
PINNED = {
    "tables": "f955880651c88fdd",
    "verify": "a3efa562efd9deb7",
    "prop2+prop4": "436fe4a2ebf6b88e",
    "prop1": "acfd71b7d6621ced",
    "classify": "1bdc61f8a540d2b0",
    "verify-render": "5d857f751e977c50",
    "frt": "bcf770339350881f",
}


def test_every_output_matches_its_pinned_prefix():
    got = {name: output_hashes.digest(pieces()) for name, pieces in output_hashes.OUTPUTS.items()}
    assert got == PINNED
