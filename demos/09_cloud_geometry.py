"""Relative entropy of particle clouds against the prior.

The entropy report uses a nearest-neighbour estimator whose Gaussian
cases have closed forms.  Each cloud lives on a one-step grid, so the
estimate is of node 0 alone.
"""

from mflangevin import TimeGrid, cloud_init, entropy_estimate, gaussian_prior

grid = TimeGrid(horizon=1.0, n_steps=1)
prior = gaussian_prior(1.0, 1)
matched = cloud_init(10_000, grid, 1, ("gaussian", 0.0, 1.0), seed=2)
shifted = cloud_init(10_000, grid, 1, ("gaussian", 1.0, 1.0), seed=3)
print(f"entropy vs prior, matched cloud:  {entropy_estimate(matched, prior)[0]:+.4f}"
      " (closed form 0)")
print(f"entropy vs prior, mean-1 cloud:   {entropy_estimate(shifted, prior)[0]:+.4f}"
      " (closed form 0.5)")
