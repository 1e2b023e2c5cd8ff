import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbx
from nbx import Family, TernaryString, families, search, strings

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_examples():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted and not result.failed


PUBLIC = [
    "BicliqueCover", "Bound", "BoundsEntry", "CapacityExceeded", "CoverReport",
    "EnumerationIncomplete", "Family", "FragmentPlan",
    "GreedyProfile", "MValueResult", "NeighborlinessReport", "NoValidSplit", "PascalFinding",
    "SearchConfig", "SearchResult", "TernaryString", "all_jokers", "all_strings",
    "alon_lower", "alon_upper", "ball_family", "ball_lower", "best_bounds", "bounds_table",
    "canonical", "cover_to_family", "diameter", "enumerate_candidates",
    "enumerate_max_families", "extremal_dminus1", "family_to_cover", "fragmented",
    "fragmented_parts", "greedy_kappa_upper", "huang_sudakov_upper", "is_lamination",
    "is_partition", "is_total_lamination", "kappa", "m_value", "max_family", "mbar_value",
    "parse", "pascal_audit", "product", "realize_mbar", "reduce_to_trivial", "refined_upper",
    "sgn_sum", "split_upper", "split_upper_best", "strict_floor", "verify_certificate",
    "verify_cover", "verify_neighborly", "volume",
]

# helpers deleted because nothing but their own tests called them
REMOVED = ["hamming", "contains", "from_coords", "_mask_from_coords", "delete",
           "delete_coord", "slice", "symbol", "SYMBOLS", "max_joker_ok", "all_binary"]


def test_public_surface():
    assert sorted(nbx.__all__) == PUBLIC
    assert all(hasattr(nbx, name) for name in PUBLIC)
    for owner in (nbx, strings, families, TernaryString, Family):
        assert [name for name in REMOVED if hasattr(owner, name)] == []
    # CapacityExceeded refuses both the candidate and the family limit
    assert not hasattr(search, "EnumerationCapExceeded")
