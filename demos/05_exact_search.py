"""Exact maximum-family search on desk-scale instances.

The solver is a branch and bound over the compatibility graph of all
candidate strings, pruned by greedy coloring, disjoint-volume counting,
and the best closed-form upper bound, and by orbital branching under the
cube's coordinate permutations and 0/1 flips.  Candidates with more than
d-k jokers never occur in a maximum family (splitting a joker of one gives
a larger family), so the search never builds them.
"""

import time

from nbx import SearchConfig, enumerate_candidates, enumerate_max_families, max_family

print("Candidate counts (strings with at most d-k jokers):")
for k, d in [(1, 3), (2, 3), (2, 5), (3, 5)]:
    print(f"  (k={k}, d={d}): {len(enumerate_candidates(k, d))}")

print("\nExact optima:")
for k, d in [(1, 3), (1, 4), (2, 3), (3, 3), (3, 4), (2, 4), (2, 5)]:
    t0 = time.monotonic()
    result = max_family(k, d)
    print(f"  n({k},{d}) = {result.optimum:3d}  proven={result.proven_optimal} "
          f"nodes={result.stats['nodes']:6d}  {time.monotonic() - t0:5.2f}s")

print("\nWitness for (2, 5):")
print("  " + " ".join(max_family(2, 5).witness.texts()))

print("\nAll maximum families for (2, 3) (each is a partition):")
fams = enumerate_max_families(2, 3)
print(f"  {len(fams)} families of size {len(fams[0])}; first: {fams[0].texts()}")

print("\nWithout the known bounds (no constructed start, no closed-form stop) it agrees:")
cfg = SearchConfig(use_known_bounds=False)
result = max_family(2, 4, cfg)
print(f"  n(2,4) = {result.optimum} proven={result.proven_optimal} "
      f"nodes={result.stats['nodes']}")
