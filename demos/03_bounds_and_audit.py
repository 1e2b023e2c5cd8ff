"""The bound landscape: closed forms, the greedy profile, aggregation.

All arithmetic is exact.  The kappa function (largest subset of the
binary cube with bounded diameter) drives both the greedy profile
optimizer and the refined formula, one case each for odd and even d - k.
"""

from nbx import (
    alon_lower,
    alon_upper,
    best_bounds,
    bounds_table,
    greedy_kappa_upper,
    huang_sudakov_upper,
    kappa,
    pascal_audit,
    refined_upper,
    split_upper_best,
)

k, d = 2, 5
print(f"All methods at (k, d) = ({k}, {d}):")
print(f"  product lower      {alon_lower(k, d)}")
print(f"  binomial-sum upper {alon_upper(k, d)}")
print(f"  halved-sum upper   {huang_sudakov_upper(k, d)}")
value, t = split_upper_best(k, d)
print(f"  split upper        {value} (at t = {t})")
total, profile = greedy_kappa_upper(k, d)
print(f"  greedy profile     {total} with counts-by-jokers {profile.a}")
print(f"  refined closed form {refined_upper(k, d)}")

print(f"\nkappa function for d = 5: {[kappa(s, 5) for s in range(6)]}")

print("\nAggregated table for d <= 8 (exact cells starred):")
print("  d:  k=1 ...")
for dd in range(1, 9):
    row = []
    for kk in range(1, dd + 1):
        e = best_bounds(kk, dd)
        cell = str(e.lower.value) if e.exact else f"{e.lower.value}-{e.upper.value}"
        row.append(cell + ("*" if e.exact else ""))
    print(f"  {dd}: " + "  ".join(row))

findings = pascal_audit(bounds_table(8, 8))
print(f"\nTriangle-inequality audit over the grid: {len(findings)} cells, "
      f"{sum(f.violated for f in findings)} violations, min slack "
      f"{min(f.slack for f in findings)}")
