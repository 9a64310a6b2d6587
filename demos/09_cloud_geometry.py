"""Distances and entropy on particle clouds.

The integrated Wasserstein distance has three backends (sorted coupling,
exact assignment, sliced projections); the entropy report uses a
nearest-neighbour estimator whose Gaussian cases have closed forms.
"""

from mflangevin import (TimeGrid, cloud_init, entropy_estimate,
                        gaussian_prior, w2_distance)

grid = TimeGrid(horizon=1.0, n_steps=4)

a = cloud_init(128, grid, 1, ("gaussian", 0.0, 1.0), seed=1)
b = a.with_particles(a.particles + 0.75)
for method in ("exact1d", "hungarian", "sliced"):
    res = w2_distance(a, b, method=method)
    print(f"W2^T by {method:10s}: {res.w2T:.6f} "
          f"(shift 0.75 over horizon 1 gives 0.75 exactly)")

prior = gaussian_prior(1.0, 1)
matched = cloud_init(10_000, grid, 1, ("gaussian", 0.0, 1.0), seed=2)
shifted = cloud_init(10_000, grid, 1, ("gaussian", 1.0, 1.0), seed=3)
print(f"entropy vs prior, matched cloud:  {entropy_estimate(matched, 0, prior):+.4f}"
      " (closed form 0)")
print(f"entropy vs prior, mean-1 cloud:   {entropy_estimate(shifted, 0, prior):+.4f}"
      " (closed form 0.5)")
