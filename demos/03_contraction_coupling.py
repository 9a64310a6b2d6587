"""Synchronous coupling: two initialisations forget each other exponentially.

Two clouds far apart evolve under identical Brownian increments.  In the
strongly regularised regime their paired distance decays exponentially,
at a rate comparable to sigma^2 kappa - 4 L with L an empirical Lipschitz
probe of the drift.
"""

import numpy as np

from mflangevin import (Dataset, TimeGrid, TrainerConfig, cloud_init,
                        gaussian_prior, lipschitz_probe,
                        make_linear_drift_model, paired_distance, train)

grid = TimeGrid(horizon=0.5, n_steps=4)
model = make_linear_drift_model(1)
dataset = Dataset(xi=np.array([[0.0]]), zeta=np.array([[1.0]]))

sigma, kappa = 2.0, 4.0
cfg = TrainerConfig(sigma=sigma, prior=gaussian_prior(kappa, 1), gamma=5e-3,
                    n_iters=140, seed=11, record_every=0)
cloud_a = cloud_init(32, grid, 1, ("gaussian", 0.0, 1.0), seed=1)
cloud_b = cloud_init(32, grid, 1, ("gaussian", 2.0, 1.0), seed=2)

# One training run with the other coupled to it: the two clouds are members
# 0 and 1 of one group, so every Brownian increment is drawn once and used
# by both; observe records their paired distance after each update.
latest = [cloud_a, cloud_b]
distance = np.zeros(cfg.n_iters + 1)
distance[0] = paired_distance(cloud_a.particles, cloud_b.particles, grid.dt)


def observe(member, iterate, cloud):
    latest[member] = cloud
    if member == 1:
        distance[iterate] = paired_distance(latest[0].particles,
                                            cloud.particles, grid.dt)


train(model, dataset, grid, cfg, cloud_b, coupled=[(cfg, cloud_a)],
      observe=observe)
l_hat = lipschitz_probe(model, dataset, grid, cloud_a, seed=5)

s = cfg.gamma * np.arange(cfg.n_iters + 1)
mask = distance > 0
slope = np.polyfit(s[mask], np.log(distance[mask] ** 2), 1)[0]
predicted = sigma ** 2 * kappa - 4.0 * l_hat

print(f"initial paired distance: {distance[0]:.4f}")
print(f"final paired distance:   {distance[-1]:.2e}")
print(f"fitted contraction rate of squared distance: {-slope:.2f}")
print(f"sigma^2 kappa - 4 L with probed L = {l_hat:.3f}: {predicted:.2f}")
print("identical noise, different starts: the cloud's law is a contraction")
