"""Both evaluators against a 200-digit reference, and against the formulas they replaced.

The reference sums ``Solution.coefficients()`` in ``decimal`` at 200 digits,
each coefficient and each point converted exactly, so it judges the
round-off of both routes against an exact sum, not a float one: the rings
of ``Solution.grid`` and the baby and giant steps of ``Solution.values``
and ``.gradient``. The formulas that assembled, laid out and weighed the
table before the ring route was reworked stay here as oracles: the helpers
must match them bit for bit where the arithmetic is the same, and within
round-off where the ring route reorders it.
"""

import decimal
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from biharmonic_disk import cli, solver, verify
from biharmonic_disk.errors import DegenerateDataError
from biharmonic_disk.solver import BoundaryData, SourceTerm

_U = np.finfo(float).eps / 2
_CASES_DIR = Path(__file__).resolve().parent.parent / "scripts" / "cases"


# ---------------------------------------------------------------------------
# the 200-digit reference


def _reference(coef, zs):
    """(Phi, Phi_z, Phi_zbar) of sum c[d, l] w_d t^l at each point, as 200-digit (re, im) pairs.

    w_d = z^d, or zbar^|d| for d < 0, and t = |z|^2. Per level l, with
    A_l(z) = sum_d>=0 c[d, l] z^d and B_l(zbar) = sum_d<0 c[d, l] zbar^|d|,
    Phi = sum t^l (A_l + B_l), Phi_z = sum t^l A_l' + l t^(l-1) zbar (A_l + B_l)
    and Phi_zbar = sum t^l B_l' + l t^(l-1) z (A_l + B_l), each polynomial
    and its derivative by Horner's rule.
    """
    n_rows = coef.shape[0]
    width = (n_rows + 1) // 2
    out = []
    with decimal.localcontext(decimal.Context(prec=200)):
        zero = Decimal(0)
        # per level, the coefficients of A_l and of B_l, highest degree first
        levels = []
        for l in range(coef.shape[1]):
            sides = []
            for column in (coef[width - 1::-1, l], np.concatenate([coef[width:, l], [0]])):
                nonzero = np.flatnonzero(column)
                sides.append([(Decimal(c.real), Decimal(c.imag))
                              for c in column[nonzero[0] if nonzero.size else column.size:]])
            levels.append(sides)
        for z in np.ravel(zs):
            x, y = Decimal(z.real), Decimal(z.imag)
            t = x * x + y * y
            sums = [[zero, zero] for _ in range(3)]
            t_l, t_below = Decimal(1), zero  # t^l and l t^(l-1)
            for l, sides in enumerate(levels):
                values = []
                for side, (u, v) in zip(sides, ((x, y), (x, -y))):
                    # Horner for the value p and the derivative dp at u + iv
                    p_re = p_im = dp_re = dp_im = zero
                    for c_re, c_im in side:
                        dp_re, dp_im = dp_re * u - dp_im * v + p_re, dp_re * v + dp_im * u + p_im
                        p_re, p_im = p_re * u - p_im * v + c_re, p_re * v + p_im * u + c_im
                    values.append((p_re, p_im, dp_re, dp_im))
                (a_re, a_im, da_re, da_im), (b_re, b_im, db_re, db_im) = values
                u_re, u_im = a_re + b_re, a_im + b_im
                sums[0][0] += t_l * u_re
                sums[0][1] += t_l * u_im
                # zbar (A + B) and z (A + B)
                sums[1][0] += t_l * da_re + t_below * (x * u_re + y * u_im)
                sums[1][1] += t_l * da_im + t_below * (x * u_im - y * u_re)
                sums[2][0] += t_l * db_re + t_below * (x * u_re - y * u_im)
                sums[2][1] += t_l * db_im + t_below * (x * u_im + y * u_re)
                t_l, t_below = t_l * t, (l + 1) * t_l
            out.append(sums)
    return out


def _error(got, ref) -> float:
    """|got - ref| for a float got and a 200-digit pair ref."""
    with decimal.localcontext(decimal.Context(prec=200)):
        return float(((Decimal(got.real) - ref[0]) ** 2 + (Decimal(got.imag) - ref[1]) ** 2).sqrt())


# Grid-shaped tables: the manufactured Phi* of the benchmark's grid workload,
# two load terms of unit modulus and up to three free terms with exponents
# <= 4. Boundary-shaped tables: six modes |m| <= 100 in each of f and h.
_GRID_LOAD = ((3, 3), (4, 2))
_FREE_PAIRS = [(a, b) for a in range(5) for b in range(5) if a < 2 or b < 2]


def _grid_shaped(seed):
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.uniform(size=len(_GRID_LOAD)))
    free = rng.choice(len(_FREE_PAIRS), rng.integers(0, 4), replace=False)
    terms = [(a, b, c) for (a, b), c in zip(_GRID_LOAD, phases)]
    terms += [(*_FREE_PAIRS[i], complex(*rng.normal(size=2))) for i in free]
    return verify.manufactured_case(SourceTerm(terms))


def _boundary_shaped(seed):
    rng = np.random.default_rng(seed)

    def datum():
        modes = rng.choice(np.arange(-100, 101), 6, replace=False)
        coeffs = (rng.normal(size=6) + 1j * rng.normal(size=6)) / np.sqrt(6)
        return BoundaryData.from_fourier(zip(modes.tolist(), coeffs))

    return solver.Case(datum(), datum(), SourceTerm.zero())


_REFERENCE_CASES = (
    [(path.stem, lambda path=path: cli.parse_case(str(path)))
     for path in sorted(_CASES_DIR.glob("*.json"))]
    + [(f"grid-{seed}", lambda seed=seed: _grid_shaped(seed)) for seed in range(20)]
    + [(f"boundary-{seed}", lambda seed=seed: _boundary_shaped(100 + seed)) for seed in range(10)])


def _route_errors(case):
    """Each route's worst error against the reference: values over u S, gradients over u W S.

    S = verify._data_scale(case) and W is the widest block. The ring route
    is read at 10 of the 16 x 32 nodes of ``Solution.grid`` and at 8 nodes
    of the ring r = 1, the point route at the same 10 nodes and at 7 points
    of the circle. Returns {route: [values, gradients]}.
    """
    solution = case.solution
    field = solution.grid(16, 32, with_gradient=True)
    nodes = np.arange(0, field.values.size, 53)
    zs = field.points.ravel()[nodes]
    ring = [out[0, ::4] for out in solution._rings(np.ones(1), 32, True)]
    circle = np.exp(1j * (2 * np.pi * np.arange(7) / 7 + 0.3))
    routes = {
        "rings": (np.concatenate([zs, np.exp(2j * np.pi * np.arange(0, 32, 4) / 32)]),
                  [np.concatenate([out.ravel()[nodes], on_ring])
                   for out, on_ring in zip((field.values, field.d_z, field.d_zbar), ring)]),
        "points": (np.concatenate([zs, circle]),
                   [np.concatenate(pair) for pair in zip(
                       (solution.values(zs), *solution.gradient(zs)),
                       (solution.values(circle), *solution.gradient(circle)))]),
    }
    coef = solution.coefficients()
    scale = _U * verify._data_scale(case)
    width = max(alpha.shape[0] for _, alpha, _ in solution._rows)
    errors = {}
    for route, (points, outs) in routes.items():
        refs = _reference(coef, points)
        worst = [max(_error(got, ref[o]) for got, ref in zip(outs[o], refs)) for o in range(3)]
        errors[route] = [worst[0] / scale, max(worst[1:]) / (width * scale)]
    return errors


# Both routes are allowed C u S on values and C u W S on gradients. Over
# these cases the worst ratios read 2.3 (values, rings on rotation.json)
# and 0.62 (gradients, rings on pure_load.json); the point route's read
# 0.40 and 0.41.
_REFERENCE_C = 8


@pytest.mark.parametrize("name, build", _REFERENCE_CASES, ids=[n for n, _ in _REFERENCE_CASES])
def test_both_routes_match_the_200_digit_reference(name, build):
    for route, worst in _route_errors(build()).items():
        assert max(worst) <= _REFERENCE_C, (route, worst)


# ---------------------------------------------------------------------------
# the formulas the rework of the ring route replaced


def _old_powers(x, n):
    out = np.empty((n, x.size), dtype=x.dtype)
    out[0] = 1.0
    done = 1
    while done < n:
        step = min(done, n - done)
        np.multiply(out[:step], out[done - 1] * x, out=out[done:done + step])
        done += step
    return out


def _old_row_weights(load, t, n_rows, gradient):
    """One block's rows: [1, s] and d/dt [0, -1], or s^2 t^j and d/dt j s^2 t^(j-1) - 2 s t^j."""
    s = 1.0 - t
    out = np.empty((2 if gradient else 1, n_rows, t.size))
    if not load:
        out[0, 0], out[0, 1] = 1.0, s
        out[1:, 0], out[1:, 1] = 0.0, -1.0
        return out
    t_pow = _old_powers(t, n_rows)
    out[0] = s * s * t_pow
    if gradient:
        out[1] = -2.0 * s * t_pow
        out[1, 1:] += np.arange(1, n_rows)[:, None] * out[0, :-1]
    return out


def _old_boundary_rows(f, h):
    given = [d for d in (f, h) if d is not None]
    tails = np.zeros(max((d.tail.size for d in given), default=0))
    with np.errstate(over="ignore"):
        for d in given:
            tails[:d.tail.size] += d.tail
    width = int(np.count_nonzero(tails > sum(d.floor for d in given)))
    if width == 0:
        return None
    rows = np.zeros((2, 2, width), dtype=complex)
    for d, p in ((f, 0), (h, 1)):
        if d is not None:
            rows[0, p, :d.a.size], rows[1, p, :d.b.size] = d.a[:width], d.b[:width]
    with np.errstate(over="ignore", invalid="ignore"):
        rows[:, 1] = 0.5 * (np.arange(width) * rows[:, 0] + rows[:, 1])
    return 0, rows[0].T, rows[1].T


def _old_load_rows(g):
    if g is None or g.is_zero:
        return None
    n_rows = max(min(a, b) for a, b, _ in g.terms) + 1
    width = max(abs(a - b) for a, b, _ in g.terms) + 1
    alpha, beta = np.zeros((2, width, n_rows), dtype=complex)
    for a, b, c in g.terms:
        k = min(a, b) + 2
        scale = c / ((a + 1) * (a + 2) * (b + 1) * (b + 2))
        (alpha if a >= b else beta)[abs(a - b), :k - 1] += scale * np.arange(k - 1, 0, -1.0)
    return 2, alpha, beta


def _old_kinds(alpha, beta, kinds, padded):
    width, n_rows = alpha.shape
    out = np.zeros((kinds, n_rows, padded), dtype=complex)
    out[0, :, :width] = alpha.T
    np.conjugate(beta.T, out=out[1, :, :width])
    if kinds == 4:
        out[2:, :, :width - 1] = solver._deriv(out[:2, :, :width])
    return out


def _old_ring_layout(blocks, n_theta, gradient, r_out):
    """The table padded per block, then copied into rows (row, i), columns (kind, g, k')."""
    widths = [alpha.shape[0] for _, alpha, _ in blocks]
    k = min(n_theta, max(widths))
    depth = -(-max(widths) // k)
    b = min(depth, math.isqrt((6 if gradient else 2) * k * depth) + 1)
    q = -(-depth // b)
    kinds = 4 if gradient else 2
    r_pow = r_out ** np.arange(q * b * k)
    lo = 0
    babies = [min(b, -(-width // k)) for width in widths]
    coef = np.empty((sum(a.shape[1] * baby for (_, a, _), baby in zip(blocks, babies)),
                     kinds * q * k), dtype=complex)
    for (_, alpha, beta), baby in zip(blocks, babies):
        n_rows = alpha.shape[1]
        c = _old_kinds(alpha, beta, kinds, q * baby * k)
        if not math.isfinite((np.abs(c) @ r_pow[:c.shape[-1]]).max()):
            raise DegenerateDataError("the outer ring's absolute sum overflows")
        coef[lo:lo + n_rows * baby].reshape(n_rows, baby, kinds, q, k)[...] = (
            c.reshape(kinds, n_rows, q, baby, k).transpose(1, 3, 0, 2, 4))
        lo += n_rows * baby
    return coef.view(float), k, b, q, babies


def _old_rings(rows, radii, n_theta, gradient):
    """The ring route before its rework: baby steps x^i in the weights, Horner in x^b."""
    outs = np.zeros((3 if gradient else 1, radii.size, n_theta), dtype=complex)
    if not rows:
        return tuple(outs)
    with np.errstate(over="ignore", invalid="ignore"):
        coef, k, b, q, babies = _old_ring_layout(rows, n_theta, gradient, radii[-1])
        n_forms = 2 if gradient else 1
        nodes = np.exp(1j * solver._circle_angles(n_theta))
        r = radii
        r_pow = _old_powers(r, k + 1)
        products = [_old_row_weights(load, r * r, alpha.shape[1], gradient).transpose(0, 2, 1)
                    for load, alpha, _ in rows]
        if b > 1:
            x_pow = _old_powers(r_pow[k], b + 1).T
            products = [(w[..., None] * x_pow[:, None, :baby]).reshape(n_forms, r.size, -1)
                        for w, baby in zip(products, babies)]
        products = np.concatenate(products, axis=-1)
        inner = (products[0] @ coef).view(complex).reshape(r.size, -1, q, k)
        if gradient:
            radial = products[1] @ coef[:, :4 * q * k]
            inner = np.concatenate([inner, radial.view(complex).reshape(r.size, 2, q, k)], axis=1)
        folds = inner[:, :, -1]
        for g in range(q - 2, -1, -1):
            folds = folds * x_pow[:, b, None, None] + inner[:, :, g]
        waves = np.fft.ifft(folds * r_pow[:k].T[:, None], n_theta, norm="forward")
        np.conjugate(waves[:, 1::2], out=waves[:, 1::2])
        np.add(waves[:, 0], waves[:, 1], out=outs[0])
        if gradient:
            z = r[:, None] * nodes
            radial = waves[:, 4] + waves[:, 5]
            np.add(waves[:, 2], np.conj(z) * radial, out=outs[1])
            np.add(waves[:, 3], z * radial, out=outs[2])
    if not np.isfinite(outs).all():
        raise solver._overflow(outs)
    return tuple(outs)


@pytest.mark.parametrize("dtype", [float, complex])
def test_powers_match_the_old_doubling(dtype):
    x = np.random.default_rng(1).uniform(-1.5, 1.5, size=(9, 2)).view(dtype).ravel()
    for n in range(1, 40):
        np.testing.assert_array_equal(solver._powers(x, n), _old_powers(x, n))


@pytest.mark.parametrize("gradient", [False, True])
def test_row_weights_match_the_old_block_rules(gradient):
    # load blocks of 1 to 17 rows, and none; t = 0 and t = 1 are the ends
    t = np.concatenate([[0.0, 1.0], np.random.default_rng(3).uniform(size=64)])
    for n_load in range(solver.MAX_EXPONENT + 2):
        both = solver._row_weights(t, n_load, gradient)
        np.testing.assert_array_equal(both[:, :2], _old_row_weights(False, t, 2, gradient))
        if n_load:
            np.testing.assert_array_equal(both[:, 2:], _old_row_weights(True, t, n_load, gradient))


def _sub_floor(rng, n):
    """n samples of seeded modes up to n / 4 plus one mode above it, below the cut's floor."""
    coef = np.zeros(n, dtype=complex)
    band = np.arange(-(n // 4), n // 4 + 1)
    coef[band] = rng.normal(size=band.size) + 1j * rng.normal(size=band.size)
    coef[n // 2 - 1] = np.finfo(float).eps * 1e-3
    return BoundaryData(n * np.fft.ifft(coef))


@pytest.mark.parametrize("seed", range(12))
def test_table_rows_match_the_old_assembly(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.choice([4, 6, 64, 512, 4096], 2)
    kinds = ["noise", "fourier", "sub-floor", None]
    data = []
    for n, kind in zip(sizes, rng.choice(kinds, 2)):
        if kind == "noise":
            data.append(BoundaryData(rng.normal(size=n) + 1j * rng.normal(size=n)))
        elif kind == "fourier":
            modes = rng.integers(-(n // 2) + 1, n // 2, 3)
            data.append(BoundaryData.from_fourier(zip(modes.tolist(), rng.normal(size=3) + 1j), n))
        elif kind == "sub-floor":
            data.append(_sub_floor(rng, n))
        else:
            data.append(None)
    new, old = solver._boundary_rows(*data), _old_boundary_rows(*data)
    assert (new is None) == (old is None)
    for a, b in zip(new or (), old or ()):
        np.testing.assert_array_equal(a, b)
    terms = [(int(a), int(b), complex(*rng.normal(size=2)))
             for a, b in rng.integers(0, solver.MAX_EXPONENT + 1, (int(rng.integers(1, 9)), 2))]
    for a, b in zip(solver._load_rows(SourceTerm(terms)), _old_load_rows(SourceTerm(terms))):
        np.testing.assert_array_equal(a, b)


def _ring_table(width, n_load, seed):
    """A Solution whose boundary block is width modes wide, with a load block of n_load rows."""
    rng = np.random.default_rng(seed)
    f, h = (BoundaryData.from_fourier(
        [(width - 1, 1.0), (-(width - 1), 0.5j)]
        + list(zip(rng.integers(-width + 1, width, 3).tolist(), rng.normal(size=3) + 1j)), 64)
        for _ in range(2))
    g = None
    if n_load:
        terms = [(n_load - 1, min(n_load + 1, solver.MAX_EXPONENT), 1.0 + 0.5j)]
        terms += [(int(a), int(b), complex(*rng.normal(size=2)))
                  for a, b in rng.integers(0, n_load, (3, 2))]
        g = SourceTerm(terms)
    return solver.Solution(f, h, g)


# Boundary widths at b^2 and b^2 + 1, load blocks of 1 to 17 rows, and
# n_theta below, equal to and above the table's width, so that the rings
# fold (with their baby and giant steps) and do not fold
@pytest.mark.parametrize("width", [9, 10, 16, 17])
@pytest.mark.parametrize("n_load", [0, 1, 2, 5, 17])
def test_ring_route_matches_the_old_ring_route(width, n_load):
    solution = _ring_table(width, n_load, seed=width * 100 + n_load)
    assert solution._rows[0][1].shape[0] == width
    table = max(alpha.shape[0] for _, alpha, _ in solution._rows)
    radii = np.linspace(0.0, 1.0, 7)
    for n_theta in (1, 3, table - 1, table, table + 1, 40):
        for gradient in (False, True):
            new = solution._rings(radii, n_theta, gradient)
            old = _old_rings(solution._rows, radii, n_theta, gradient)
            if n_theta >= table:
                # no fold: the same products in the same order
                np.testing.assert_array_equal(new, old)
            else:
                # the folds' powers x^J, J = i q + g, split the other way
                # round: the routes may differ by round-off in the fold's
                # sums, 8 W u times the absolute sum of the terms
                scale = sum(np.abs(_old_rings(solution._rows, radii, 1, gradient)))
                assert np.all(np.abs(np.array(new) - old) <= 8 * table * _U * scale), n_theta


_THREE_MODES = [(179, 1e304), (180, 1e304), (181, 1e304)]


# The old route also refused a table whose absolute sum on the outer ring
# overflows. Finite rows whose absolute sum overflows (the three modes,
# alone and with h = f) give finite outputs, answered within the reference's
# allowance. A derivative row past the double range (mode 255) and data
# whose size S overflows give outputs that overflow, and stay refused. The
# last call is solve_grid's 2000 x 4 grid.
@pytest.mark.parametrize("modes, with_h, answered", [
    ([(255, 1e304)], False, 0), (_THREE_MODES, False, 5), ([(200, 1e306), (-3, 1.0)], False, 0),
    ([(100, 5e305), (101, -5e305j)], False, 0), (_THREE_MODES, True, 5),
], ids=["modes0", "modes1", "modes2", "modes3", "modes1-with-h"])
def test_ring_route_refuses_only_outputs_that_overflow(modes, with_h, answered):
    f = BoundaryData.from_fourier(modes)
    case = solver.Case(f, f if with_h else BoundaryData.zero(f.samples.size), SourceTerm.zero())
    solution = case.solution
    calls = [(radii, n_theta) for radii in (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 0.5, 3),
                                            np.zeros(1)) for n_theta in (1, 4, 64, 600)]
    calls.append((np.arange(2000) / 2000, 4))
    newly = 0
    for radii, n_theta in calls:
        for gradient in (False, True):
            outcomes = []
            for route in (lambda: solution._rings(radii, n_theta, gradient),
                          lambda: _old_rings(solution._rows, radii, n_theta, gradient)):
                try:
                    outcomes.append(np.array(route()))
                except DegenerateDataError:
                    outcomes.append(None)
            new, old = outcomes
            assert new is not None or old is None, (radii, n_theta, gradient)
            if new is None or old is not None:
                continue
            newly += 1
            # at most 40 of the call's nodes, against values u S and gradients u W S
            points = (radii[:, None] * np.exp(1j * solver._circle_angles(n_theta))).ravel()
            picks = np.unique(np.linspace(0, points.size - 1, 40).astype(int))
            refs = _reference(solution.coefficients(), points[picks])
            scale = _U * verify._data_scale(case)
            width = max(alpha.shape[0] for _, alpha, _ in solution._rows)
            for o, out in enumerate(new.reshape(len(new), -1)[:, picks]):
                worst = max(_error(got, ref[o]) for got, ref in zip(out, refs))
                assert worst <= _REFERENCE_C * scale * (width if o else 1), (radii, n_theta, o)
    assert newly == answered
