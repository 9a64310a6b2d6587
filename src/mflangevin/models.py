"""Controlled vector fields, costs, their analytic derivatives, and priors.

A model is the triple (phi, f, g): the drift phi_t(x, a, zeta_t) of the
controlled state, the running cost f_t(x, a, zeta_t), and the terminal cost
g(x, zeta), together with hand-coded partial derivatives.  Derivatives are
analytic on purpose: the finite-difference self-check below is then a fully
independent oracle rather than a test of one autodiff engine against itself.

All point maps follow a numpy broadcasting contract: ``x`` has shape
(..., d), ``a`` has shape (..., p), ``zeta_t`` has shape (..., q), batch
dimensions broadcast, and outputs carry the broadcast batch shape.  The
derivatives of phi are costate products, never Jacobians: ``grad_x_phi(t,
x, a, zeta_t, p)`` returns (d_x phi)^T p with shape (..., d) and
``grad_a_phi`` returns (d_a phi)^T p with shape (..., p), where the costate
``p`` broadcasts like ``x``.  They are the x- and a-gradients of phi . p,
the first term of the Hamiltonian h = phi . p + f.

The sweeps call a node pair (:meth:`ModelSpec.node_pair`).  At one grid
node, ``forward(t, x, a, zeta_t)`` maps samples ``x`` (N1, d), particles
``a`` (N2, p) and data (N1, q) or None to mean_i phi (N1, d) and a cache;
``backward(cache, p)`` maps the costate (N1, d) to mean_i [(d_x phi)^T p
+ d_x f] (N1, d) and mean_k [(d_a phi)^T p + d_a f] (N2, p).  The tanh
builtins fuse theirs into matrix products over (N1, N2 * m) blocks; other
models derive theirs from the point maps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .rng import PURPOSE_PROBE, keyed_normals, keyed_uniforms

__all__ = [
    "ModelSpec", "PriorSpec", "SelfCheckReport",
    "make_builtin_model", "make_linear_drift_model", "make_zero_cost_model",
    "gaussian_prior", "model_grad_selfcheck", "BUILTIN_KINDS",
]

BUILTIN_KINDS = ("one_layer_residual", "neural_ode_tanh", "timeseries_interp")


@dataclass(frozen=True)
class ModelSpec:
    """Dynamics and cost of one relaxed-control problem.

    ``dim_data`` is the length of the data slice fed to phi and f at one
    time node: the full vector for vector-valued data, the channel count
    for path-valued data.  ``g`` receives the complete data object (vector
    or path) since terminal costs may look at any of it.  ``grad_x_phi``
    and ``grad_a_phi`` take the costate as a fifth argument and return its
    products with the Jacobians of phi (see the module docstring).

    ``forward`` and ``backward`` are an optional fused node pair.
    ``dataclasses.replace`` keeps them as given, so replace them with the
    maps they fuse; a derived pair reads the current maps.
    """

    dim_state: int
    dim_param: int
    dim_data: int
    phi: Callable
    grad_x_phi: Callable
    grad_a_phi: Callable
    f: Callable
    grad_x_f: Callable
    grad_a_f: Callable
    g: Callable
    grad_x_g: Callable
    kind: str = "custom"
    forward: Callable | None = None
    backward: Callable | None = None

    def __post_init__(self):
        if self.dim_state < 1 or self.dim_param < 1:
            raise ValueError("dim_state and dim_param must be positive")
        if self.dim_data < 0:
            raise ValueError("dim_data must be nonnegative")
        if (self.forward is None) != (self.backward is None):
            raise ValueError("set both forward and backward, or neither")

    def node_pair(self) -> tuple[Callable, Callable]:
        """The fused (forward, backward) pair if set, else one derived now
        from the point maps, with samples and particles on batch axes 0, 1."""
        if self.forward is not None:
            return self.forward, self.backward

        def forward(t, x, a, zeta_t):
            args = (t, x[:, None, :], a[None],
                    None if zeta_t is None else zeta_t[:, None, :])
            return self.phi(*args).mean(axis=1), args

        def backward(args, p):
            p = p[:, None, :]
            gx = (self.grad_x_phi(*args, p).mean(axis=1)
                  + self.grad_x_f(*args).mean(axis=1))
            return gx, (self.grad_a_phi(*args, p) + self.grad_a_f(*args)).mean(axis=0)

        return forward, backward


@dataclass(frozen=True)
class PriorSpec:
    """Regularising prior gamma(a) = exp(-U(a)) with convexity modulus kappa.

    ``log_density`` returns -U(a); for the default Gaussian prior U includes
    its normaliser so that gamma integrates to one, which makes the entropy
    reports genuine relative entropies.
    """

    kappa: float
    grad_U: Callable
    log_density: Callable

    def U(self, a):
        return -self.log_density(a)


def gaussian_prior(kappa: float, dim_param: int) -> PriorSpec:
    """Gaussian prior U(a) = kappa|a|^2/2 + normaliser, grad U = kappa a."""
    if not 0.0 < kappa < math.inf:  # NaN fails the comparison too
        raise ValueError("kappa must be finite and positive")
    log_norm = 0.5 * dim_param * math.log(2.0 * math.pi / kappa)

    def grad_U(a):
        return kappa * np.asarray(a, dtype=float)

    def log_density(a):
        a = np.asarray(a, dtype=float)
        return -0.5 * kappa * np.sum(a * a, axis=-1) - log_norm

    return PriorSpec(kappa=kappa, grad_U=grad_U, log_density=log_density)


@functools.lru_cache(maxsize=256)
def _broadcast_batch(shapes: tuple) -> tuple:
    return np.broadcast_shapes(*(shape[:-1] for shape in shapes))


def _batch_shape(*arrays):
    """Broadcast batch shape of map inputs (all axes but the last)."""
    return _broadcast_batch(tuple([np.shape(arr) for arr in arrays
                                   if arr is not None]))


def _spread(out: np.ndarray, bshape: tuple, n_core: int) -> np.ndarray:
    """``out`` with batch shape ``bshape``; copied only if it lacks batch axes."""
    if out.shape[:out.ndim - n_core] == bshape:
        return out
    return np.broadcast_to(out, bshape + out.shape[out.ndim - n_core:]).copy()


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Batched mat (..., i, j) times vec (..., j), summed over j in index order.

    Whole-batch products per column avoid einsum's per-element overhead on
    these short axes; sums of up to two terms match einsum bit for bit.
    """
    out = mat[..., 0] * vec[..., None, 0]
    for j in range(1, mat.shape[-1]):
        out = out + mat[..., j] * vec[..., None, j]
    return out


def _param_blocks(*shapes) -> tuple:
    """Slice of the parameter axis and shape of each block, in order."""
    blocks, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        blocks.append((slice(start, start + size), shape))
        start += size
    return tuple(blocks)


def _split(a, blocks) -> list:
    """Views of the parameter blocks of ``a`` (..., p)."""
    a = np.asarray(a, dtype=float)
    lead = a.shape[:-1]
    return [a[..., sl].reshape(lead + shape) for sl, shape in blocks]


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched outer product u (..., i) v (..., j), flattened to (..., i * j)."""
    out = u[..., :, None] * v[..., None, :]
    return out.reshape(out.shape[:-2] + (-1,))


def _columns(bshape: tuple, *blocks) -> np.ndarray:
    """Blocks (..., width) side by side, each broadcast over ``bshape``."""
    out = np.empty(bshape + (sum(b.shape[-1] for b in blocks),))
    start = 0
    for b in blocks:
        out[..., start:start + b.shape[-1]] = b
        start += b.shape[-1]
    return out


def _zero_cost_maps(d: int, p: int):
    def f(t, x, a, zeta_t):
        return np.zeros(_batch_shape(x, a, zeta_t))

    def grad_x_f(t, x, a, zeta_t):
        return np.zeros(_batch_shape(x, a, zeta_t) + (d,))

    def grad_a_f(t, x, a, zeta_t):
        return np.zeros(_batch_shape(x, a, zeta_t) + (p,))

    return f, grad_x_f, grad_a_f


def _zero_terminal():
    def g(x, zeta):
        return np.zeros(np.asarray(x).shape[:-1])

    def grad_x_g(x, zeta):
        return np.zeros(np.asarray(x, dtype=float).shape)

    return g, grad_x_g


def _squared_distance_terminal(d: int):
    def g(x, zeta):
        r = np.asarray(x, dtype=float) - np.asarray(zeta, dtype=float)
        return np.sum(r * r, axis=-1)

    def grad_x_g(x, zeta):
        return 2.0 * (np.asarray(x, dtype=float) - np.asarray(zeta, dtype=float))

    return g, grad_x_g


def make_linear_drift_model(d: int) -> ModelSpec:
    """Drift equal to the parameter: phi(x, a) = a, f = 0, g = |x - zeta|^2.

    The objective is a convex quadratic in the particle coordinates, which
    makes this the standard fixture for descent, contraction, and Gibbs
    checks.
    """
    if d < 1:
        raise ValueError("d must be positive")
    f, grad_x_f, grad_a_f = _zero_cost_maps(d, d)
    g, grad_x_g = _squared_distance_terminal(d)

    def phi(t, x, a, zeta_t):
        return np.broadcast_to(np.asarray(a, dtype=float),
                               _batch_shape(x, a, zeta_t) + (d,)).copy()

    def grad_x_phi(t, x, a, zeta_t, p):
        return np.zeros(_batch_shape(x, a, zeta_t, p) + (d,))

    def grad_a_phi(t, x, a, zeta_t, p):
        return np.broadcast_to(np.asarray(p, dtype=float),
                               _batch_shape(x, a, zeta_t, p) + (d,)).copy()

    return ModelSpec(dim_state=d, dim_param=d, dim_data=d,
                     phi=phi, grad_x_phi=grad_x_phi, grad_a_phi=grad_a_phi,
                     f=f, grad_x_f=grad_x_f, grad_a_f=grad_a_f,
                     g=g, grad_x_g=grad_x_g, kind="linear_drift")


def make_zero_cost_model(d: int) -> ModelSpec:
    """Vanishing costs: the costate is identically zero, so the cloud feels
    only the prior gradient and the noise.  The control run for
    stationarity checks against the bare prior."""
    g, grad_x_g = _zero_terminal()  # f is zero already
    return replace(make_linear_drift_model(d), g=g, grad_x_g=grad_x_g,
                   kind="zero_cost")


def make_builtin_model(kind: str, d: int, p_hidden: int = 1,
                       dim_data: int = 0) -> ModelSpec:
    """Construct one of the built-in tanh architectures.

    one_layer_residual
        phi(a, zeta) = A1 tanh(A2 zeta): a one-hidden-layer network reading
        the data vector, independent of the state (grad_x phi is exactly
        zero).  Costs: f = 0, g(x, zeta) = |x - zeta|^2.  Requires
        dim_data == d.  Parameters per particle: p = p_hidden * (d + d).
    neural_ode_tanh
        phi(x, a) = A1 tanh(w * mean(x)): p_hidden tanh units driven by the
        pooled state, so the drift is genuinely state-dependent with a
        dense (rank-one) Jacobian.  Costs as above; dim_data must equal d.
        Parameters per particle: p = p_hidden * (d + 1).
    timeseries_interp
        phi_t(x, a, zeta_t) = A1 tanh(w * mean(x) + A3 zeta1_t) where the
        data slice carries two channel blocks (zeta1 observations, zeta2
        truth).  Running cost f = |x - zeta2_t|^2, terminal cost g = 0.
        Requires dim_data == 2 d.  Parameters: p = p_hidden * (2 d + 1).
    """
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown builtin kind {kind!r}")
    if d < 1 or p_hidden < 1:
        raise ValueError("dimensions must be positive")
    m = p_hidden
    # Every architecture has phi = A1 h with units h = tanh(z) and
    # z = w * mean(x) + A zeta_t[:d], where one_layer_residual has no w
    # term (A = A2), neural_ode_tanh no A term, and timeseries_interp both
    # (A = A3).  The A1 block of (d_a phi)^T p is the outer product p h^T;
    # w and A reach phi . p through v = (A1^T p) * tanh'(z).
    state_driven = kind != "one_layer_residual"
    data_driven = kind != "neural_ode_tanh"
    if kind == "timeseries_interp":
        if dim_data != 2 * d:
            raise ValueError("timeseries_interp needs dim_data == 2*d "
                             "(observation and truth channel blocks)")
        q = dim_data
    else:
        q = dim_data if dim_data else d
        if q != d:
            raise ValueError(f"{kind} needs dim_data == d "
                             "(terminal cost compares state to data)")
    shapes = [(d, m)]  # A1
    if state_driven:
        shapes.append((m,))  # w
    if data_driven:
        shapes.append((m, d))  # A2 or A3
    blocks = _param_blocks(*shapes)
    dim_param = blocks[-1][0].stop

    if kind == "timeseries_interp":
        def f(t, x, a, zeta_t):
            r = np.asarray(x, dtype=float) - np.asarray(zeta_t, dtype=float)[..., d:]
            return _spread(np.sum(r * r, axis=-1), _batch_shape(x, a, zeta_t), 0)

        def grad_x_f(t, x, a, zeta_t):
            r = np.asarray(x, dtype=float) - np.asarray(zeta_t, dtype=float)[..., d:]
            return _spread(2.0 * r, _batch_shape(x, a, zeta_t), 1)

        def grad_a_f(t, x, a, zeta_t):
            return np.zeros(_batch_shape(x, a, zeta_t) + (dim_param,))

        g, grad_x_g = _zero_terminal()
    else:
        f, grad_x_f, grad_a_f = _zero_cost_maps(d, dim_param)
        g, grad_x_g = _squared_distance_terminal(d)

    def _units(x, a, zeta_t):
        """A1, w, the tanh units, mean(x) and zeta_t[:d] (None if unused)."""
        a1, *rest = _split(a, blocks)
        w = xbar = zeta1 = z = None
        if state_driven:
            w = rest.pop(0)
            xbar = np.mean(np.asarray(x, dtype=float), axis=-1)
            z = w * xbar[..., None]
        if data_driven:
            zeta1 = np.asarray(zeta_t, dtype=float)[..., :d]
            az = _matvec(rest[0], zeta1)
            z = az if z is None else z + az
        return a1, w, np.tanh(z), xbar, zeta1

    def phi(t, x, a, zeta_t):
        a1, _, h, _, _ = _units(x, a, zeta_t)
        return _spread(_matvec(a1, h), _batch_shape(x, a, zeta_t), 1)

    def grad_x_phi(t, x, a, zeta_t, p):
        bshape = _batch_shape(x, a, zeta_t, p)
        if not state_driven:
            return np.zeros(bshape + (d,))
        # phi depends on x only through mean(x), so every entry of
        # (d_x phi)^T p is p . A1 (w tanh'(z)) / d.
        a1, w, h, _, _ = _units(x, a, zeta_t)
        s = _matvec(a1, w * (1.0 - h * h)) / d
        ps = _matvec(np.asarray(p, dtype=float)[..., None, :], s)
        return np.broadcast_to(ps, bshape + (d,)).copy()

    def grad_a_phi(t, x, a, zeta_t, p):
        a1, _, h, xbar, zeta1 = _units(x, a, zeta_t)
        p = np.asarray(p, dtype=float)
        v = _matvec(np.swapaxes(a1, -1, -2), p) * (1.0 - h * h)
        cols = [_outer(p, h)]
        if state_driven:
            cols.append(v * xbar[..., None])
        if data_driven:
            cols.append(_outer(v, zeta1))
        return _columns(_batch_shape(x, a, zeta_t, p), *cols)

    # The fused node pair.  Unit u of particle i is column i * m + u of the
    # (N1, N2 * m) blocks, so each sum over samples or particles is one
    # matrix product.
    def forward(t, x, a, zeta_t):
        a1, *rest = _split(a, blocks)
        w = xbar = zeta1 = z = None
        if state_driven:
            w = rest.pop(0).reshape(-1)
            xbar = np.mean(x, axis=1)
            z = xbar[:, None] * w
        if data_driven:
            zeta1 = zeta_t[:, :d]
            az = zeta1 @ rest[0].transpose(2, 0, 1).reshape(d, -1)
            z = az if z is None else z + az
        h = np.tanh(z)
        cols = a1.transpose(0, 2, 1).reshape(-1, d)  # row i * m + u: A1[i, :, u]
        return (h @ cols) / len(a), (x, zeta_t, cols, w, xbar, zeta1, h)

    def backward(cache, p):
        x, zeta_t, cols, w, xbar, zeta1, h = cache
        n1, n2 = len(p), len(cols) // m
        v = (p @ cols.T) * (1.0 - h * h)
        sums = [(p.T @ h).reshape(d, n2, m).transpose(1, 0, 2)]
        if state_driven:
            sums.append(xbar @ v)
        if data_driven:
            sums.append((zeta1.T @ v).reshape(d, n2, m).transpose(1, 2, 0))
        ga = np.concatenate([s.reshape(n2, -1) for s in sums], axis=1) / n1
        gx = np.zeros((n1, d))
        if state_driven:  # phi reads x through mean(x) only, as in grad_x_phi
            gx = np.broadcast_to(((v @ w) / (n2 * d))[:, None], (n1, d))
        if kind == "timeseries_interp":
            gx = gx + 2.0 * (x - zeta_t[:, d:])
        return gx, ga

    return ModelSpec(dim_state=d, dim_param=dim_param, dim_data=q,
                     phi=phi, grad_x_phi=grad_x_phi, grad_a_phi=grad_a_phi,
                     f=f, grad_x_f=grad_x_f, grad_a_f=grad_a_f,
                     g=g, grad_x_g=grad_x_g, kind=kind,
                     forward=forward, backward=backward)


@dataclass(frozen=True)
class SelfCheckReport:
    """Maximum relative derivative errors against central finite differences."""

    max_rel_err: dict
    threshold: float
    n_probes: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(v <= self.threshold for v in self.max_rel_err.values())


def _central_diff(fn, arg, step):
    """Central differences of a scalar fn along its argument's last axis."""
    cols = []
    for j in range(arg.shape[-1]):
        hi = arg.copy()
        lo = arg.copy()
        hi[..., j] += step
        lo[..., j] -= step
        cols.append((fn(hi) - fn(lo)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def model_grad_selfcheck(model: ModelSpec, n_probes: int = 100,
                         seed: int = 0, step: float = 1e-4,
                         threshold: float = 1e-4) -> SelfCheckReport:
    """Check every analytic derivative map against finite differences.

    Probes are standard-normal states/parameters, data slices and costates
    plus a uniform probe time, all drawn from the keyed generator.  The
    costate products of phi are checked against differences of phi . p at
    the probe costate p.  Reported errors are max |analytic - numeric| /
    (1 + |numeric|); the report flags failure above ``threshold``.
    """
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    d, p, q = model.dim_state, model.dim_param, model.dim_data
    rows = np.arange(n_probes).reshape(-1, 1)

    def draw(tag, dim):
        return keyed_normals(seed, PURPOSE_PROBE, np.arange(dim), rows, tag, 0)

    x = draw(1, d)
    a = draw(2, p)
    zeta = draw(3, q) if q else None
    t = keyed_uniforms(seed, PURPOSE_PROBE, 0, 0, 4, 0).item()
    costate = draw(5, d)

    def phi_dot_p(x, a):
        return np.sum(model.phi(t, x, a, zeta) * costate, axis=-1)

    def rel_err(analytic, numeric):
        return float(np.max(np.abs(analytic - numeric) / (1.0 + np.abs(numeric))))

    errs = {
        "grad_x_phi": rel_err(model.grad_x_phi(t, x, a, zeta, costate),
                              _central_diff(lambda v: phi_dot_p(v, a), x, step)),
        "grad_a_phi": rel_err(model.grad_a_phi(t, x, a, zeta, costate),
                              _central_diff(lambda v: phi_dot_p(x, v), a, step)),
        "grad_x_f": rel_err(model.grad_x_f(t, x, a, zeta),
                            _central_diff(lambda v: model.f(t, v, a, zeta), x, step)),
        "grad_a_f": rel_err(model.grad_a_f(t, x, a, zeta),
                            _central_diff(lambda v: model.f(t, x, v, zeta), a, step)),
        "grad_x_g": rel_err(model.grad_x_g(x, zeta if q else np.zeros_like(x)),
                            _central_diff(lambda v: model.g(v, zeta if q else np.zeros_like(x)), x, step)),
    }
    return SelfCheckReport(max_rel_err=errs, threshold=threshold,
                           n_probes=n_probes, seed=seed)
