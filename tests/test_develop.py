"""Normalization to the geometric equations and frame development."""

import os
import tracemalloc

import numpy as np
import pytest

from vortexlab.entire import EntireFunction
from vortexlab.grid import GridDomain
from vortexlab.invariants import TOL_SOLVE, check_converged, h_field
from vortexlab import solve
from vortexlab import surfaces as dev

from conftest import blaschke_curvature, gauss_jacobian

WANG = dev.SurfaceMode.WANG_K3
HARMONIC = dev.SurfaceMode.HARMONIC_K2


def _exact_wang_constant(c0=1.5 + 0.5j, R=1.0, n=161):
    diff = EntireFunction(p=(c0,))
    prob = dev.geometric_problem(diff, WANG, GridDomain(R, n))
    return dev.normalize(prob.profile(), prob, WANG), c0


def _exact_cmc_exponential(R=1.0, n=161):
    diff = EntireFunction(p=(1.0,), q=(0.0, 2.0))
    prob = dev.geometric_problem(diff, HARMONIC, GridDomain(R, n))
    return dev.normalize(prob.profile(), prob, HARMONIC)


def _start_frame(mode, w):
    """The initial frame of the develop pass at the central node: that of
    develop_affine_sphere resp. of develop_cmc."""
    if mode is WANG:
        c = (len(w) - 1) // 2
        a = np.exp(0.5 * w[c, c])
        return np.array([[0.0, 0.0, 1.0], [0.5 * a, -0.5j * a, 0.0], [0.5 * a, 0.5j * a, 0.0]])
    return np.eye(4, 3, k=-1)


def _expm(a):
    """exp of each matrix of a stack (..., d, d), by scaling and squaring
    with a Taylor sum: right for a defective matrix too, which an
    eigendecomposition is not."""
    squarings = max(0, int(np.ceil(np.log2(max(np.max(np.sum(np.abs(a), axis=-1)), 1e-300)))) + 1)
    a = a / 2.0 ** squarings  # every row sum at most 1/2
    term = out = np.broadcast_to(np.eye(a.shape[-1], dtype=a.dtype), a.shape)
    for k in range(1, 20):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _exact_constant_frames(sol):
    """exp(y M_y) exp(x M_x) S0 at every node, (n, n, d, 3), for a constant
    w and differential: the coefficients are then constant and commute."""
    mats = dev._wang_mats if sol.mode is WANG else dev._cmc_mats
    w, val = sol.w[0, 0], complex(sol.differential.eval(0j))
    mx, my = (mats(w, 0.0, 0.0, val, axis=axis) for axis in (0, 1))
    t = sol.domain.axis[:, None, None]
    return np.einsum("jab,ibc,cd->ijad", _expm(t * my), _expm(t * mx), _start_frame(sol.mode, sol.w))


def test_geometric_problem_embeds_the_differential():
    diff = EntireFunction(p=(0.0, 1.0))
    pw = dev.geometric_problem(diff, WANG, GridDomain(2.0, 41))
    assert pw.k == 3
    assert pw.phi.p == (0.0 + 0j, 4.0 + 0j)
    ph = dev.geometric_problem(diff, HARMONIC, GridDomain(2.0, 41))
    assert ph.k == 2
    assert ph.phi.p == (0.0 + 0j, 2.0 + 0j)


def test_normalize_constant_differential():
    sol, c0 = _exact_wang_constant()
    target = np.log(2.0 * abs(c0) ** 2) / 3.0
    assert np.abs(sol.w - target).max() <= 1e-12
    assert sol.residual_norm <= 1e-12


def test_normalize_degenerate_exponential_is_linear():
    sol = _exact_cmc_exponential()
    assert np.abs(sol.w - sol.domain.zz().real).max() <= 1e-12
    assert sol.residual_norm <= 1e-11


def test_normalize_checks_k():
    diff = EntireFunction(p=(0.0, 1.0))
    prob = dev.geometric_problem(diff, HARMONIC, GridDomain(2.0, 41))
    with pytest.raises(ValueError):
        dev.normalize(np.zeros((41, 41)), prob, WANG)


def test_unconverged_fields_pass_normalize_but_not_develop():
    # normalize is a unit conversion and judges only its own substitution;
    # solve quality is gated at the development entry point
    diff = EntireFunction(p=(1.0,))
    prob = dev.geometric_problem(diff, WANG, GridDomain(2.0, 41))
    sol = dev.normalize(prob.profile() + 0.3, prob, WANG)
    assert sol.residual_norm > 1e-2
    with pytest.raises(ValueError):
        dev.develop_affine_sphere(sol)


def test_cmc_development_refuses_an_unconverged_field():
    diff = EntireFunction(p=(1.0,))
    prob = dev.geometric_problem(diff, HARMONIC, GridDomain(2.0, 41))
    sol = dev.normalize(prob.profile() + 0.3, prob, HARMONIC)
    assert sol.residual_norm > 1e-2
    with pytest.raises(ValueError, match="w is not converged"):
        dev.develop_cmc(sol)


def _exp_wang_profile():
    diff = EntireFunction(p=(1.0,), q=(0.0, 1.0))
    prob = dev.geometric_problem(diff, WANG, GridDomain(2.0, 41))
    return prob, prob.profile()


def test_normalize_locks_its_substitution(monkeypatch):
    # the exact U = e^z profile normalizes; a wrong shift leaves a residual
    # the base field does not have
    prob, w = _exp_wang_profile()
    assert dev.normalize(w, prob, WANG).residual_norm <= 1e-11
    monkeypatch.setattr(dev, "WANG_SHIFT", np.log(2.0) + 1e-3)
    with pytest.raises(ValueError, match="residual lock"):
        dev.normalize(w, prob, WANG)


def test_normalize_refuses_a_nan_residual():
    # a NaN node, and a ring of +inf (as the complete field has), whose
    # residual is inf in the normalization and in the base equation alike
    prob, w = _exp_wang_profile()
    nan_node, inf_ring = w.copy(), w.copy()
    nan_node[20, 20] = np.nan
    inf_ring[[0, -1]] = inf_ring[:, [0, -1]] = np.inf
    for field in (nan_node, inf_ring):
        with pytest.raises(ValueError, match="residual lock"):
            dev.normalize(field, prob, WANG)


def test_normalized_wang_solution_satisfies_its_equation(wang_z_family):
    assert wang_z_family[161].sol.residual_norm <= 1e-8


def test_blaschke_curvature_flat_for_constant():
    sol, _ = _exact_wang_constant(n=41)
    K = blaschke_curvature(sol)
    assert np.abs(K[1:-1, 1:-1]).max() <= 1e-10


def _bumped(sol, residual):
    """sol plus a smooth bump, scaled so that its normalized residual is
    about the given one."""
    bump = np.exp(-np.abs(sol.domain.zz()) ** 2 / 0.1)

    def bumped(eps):
        return dev.NormalizedSolution(sol.mode, sol.differential, sol.domain, sol.w + eps * bump)

    return bumped(residual / (bumped(1e-6).residual_norm / 1e-6))


def test_blaschke_curvature_nonpositive_on_solved_field(wang_z_family):
    # away from the lifted ring: the rim rows carry O(h^2) sign noise
    sol = wang_z_family[81].sol
    K = blaschke_curvature(sol)
    inner = sol.domain.inner
    assert K[inner, inner].max() < 0.0
    assert K[inner, inner].min() < -1e-3


def test_develop_constant_is_machine_flat():
    sol, _ = _exact_wang_constant()
    surf = dev.develop_affine_sphere(sol)
    assert surf.imag_max <= 1e-8
    assert surf.holonomy_defect <= 1e-11
    assert np.abs(surf.metric - sol.w)[1:-1, 1:-1].max() <= 1e-8


@pytest.mark.parametrize("mode, differential, bound", [
    (WANG, EntireFunction(p=(1.0,)), 3.3e-7),  # U = 1: the Titeica surface
    (HARMONIC, EntireFunction(p=(1.0,)), 2.0e-6),  # q = 1: M_y is defective
])
def test_developed_positions_converge_to_the_closed_form(mode, differential, bound):
    # for a constant differential the exact solution is the constant profile,
    # and the exact frames are exp(y M_y) exp(x M_x) S0.  One RK4 step per
    # edge: the error falls by 2^4 per halving of h; at n = 161 it was
    # measured at 3.3e-8 (U = 1) and 2.0e-7 (q = 1), a tenth of the bound
    errors = []
    for n in (81, 161, 321):
        prob = dev.geometric_problem(differential, mode, GridDomain(2.0, n))
        sol = dev.normalize(prob.profile(), prob, mode)
        surf = (dev.develop_affine_sphere if mode is WANG else dev.develop_cmc)(sol)
        exact = _exact_constant_frames(sol)[:, :, 0, :].real
        errors.append(np.max(np.abs(surf.positions - exact)) / np.max(np.abs(exact)))
    orders = np.log2(np.divide(errors[:-1], errors[1:]))
    assert np.all((3.8 <= orders) & (orders <= 4.2)), (errors, orders)
    assert errors[1] <= bound, errors


@pytest.mark.parametrize("times", [10.0, 40.0, 90.0])
def test_develop_and_curvature_refuse_the_same_fields(times):
    # one gate on a solved field: both develop paths accept and refuse what
    # the curvature cross-check does, 20 * TOL_SOLVE; 40 and 90 TOL_SOLVE lie
    # between that bound and 1e-7
    prob = dev.geometric_problem(EntireFunction(p=(1.0,)), HARMONIC, GridDomain(1.0, 41))
    wang = _bumped(_exact_wang_constant(n=41)[0], times * TOL_SOLVE)
    cmc = _bumped(dev.normalize(prob.profile(), prob, HARMONIC), times * TOL_SOLVE)
    for sol in (wang, cmc):
        assert sol.residual_norm == pytest.approx(times * TOL_SOLVE, rel=1e-3)
    verdicts = []
    for gate, sol in ((lambda s: check_converged(s.residual_norm), wang),
                      (dev.develop_affine_sphere, wang), (dev.develop_cmc, cmc)):
        try:
            gate(sol)
            verdicts.append("accepted")
        except ValueError as exc:
            verdicts.append(str(exc).replace("%.3e" % sol.residual_norm, "r"))
    want = "accepted" if times <= 20.0 else ("algebraic and stencil curvature disagree: "
                                             "residual r, w is not converged")
    assert verdicts == [want] * 3


def test_develop_gate_refuses_unconverged_fields():
    sol, _ = _exact_wang_constant(n=41)
    broken = dev.NormalizedSolution(sol.mode, sol.differential, sol.domain,
                                    sol.w + 0.05 * np.cos(sol.domain.zz().real))
    with pytest.raises(ValueError):
        dev.develop_affine_sphere(broken)


def test_restricted_cubic_defect_small_and_decreasing(z3_family):
    d161 = z3_family[161].defect
    d321 = z3_family[321].defect
    assert z3_family[161].sol.domain.R == pytest.approx(1.5)
    assert d161 <= 1e-4
    assert d321 < d161


@pytest.mark.xfail(
    strict=True,
    reason="the transfer error of an independently solved field scales like "
    "h^2 per plaquette on top of an O(h^2)-accurate field, giving a "
    "~16x defect drop per refinement instead of the plain-stencil 4x",
)
def test_restricted_cubic_defect_halving_ratio(z3_family):
    ratio = z3_family[161].defect / z3_family[321].defect
    assert 3.5 <= ratio <= 4.5


def test_corrupted_solution_flags_holonomy(wang_z_family):
    st = wang_z_family[161]
    dom = st.sol.domain
    bump = 0.1 * np.exp(-np.abs(dom.zz()) ** 2 / (2 * 0.05**2))
    broken = dev.NormalizedSolution(st.sol.mode, st.sol.differential, dom,
                                    st.sol.w + bump)
    assert dev.holonomy_defect(st.surface, broken) > 1e-2


def test_recorded_defect_is_the_holonomy_pass(wang_z_family, qz_state):
    # development records the defect of the pass that built the frames; the
    # public check runs the same pass again on the finished frames
    st = wang_z_family[161]
    assert st.surface.holonomy_defect == dev.holonomy_defect(st.surface, st.sol)
    cmc = qz_state.surface
    assert cmc.holonomy_defect == dev.holonomy_defect(cmc, qz_state.sol_inner)
    dom = st.sol.domain
    bump = 0.1 * np.exp(-np.abs(dom.zz()) ** 2 / (2 * 0.05**2))
    broken = dev.NormalizedSolution(st.sol.mode, st.sol.differential, dom, st.sol.w + bump)
    assert dev.holonomy_defect(st.surface, broken) > 1e-2


def _peak_kb() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def test_development_never_holds_the_full_transfer_stacks(use_parts):
    # nor the frames: a full-grid (n, n, 3, 3) complex frame stack takes
    # 9 * 16 n^2 bytes, 59 MB at n = 641, and the four transfer stacks four
    # times that.  Each block reduces its own frames to its rows of the
    # positions and the metric, so develop adds to a process's peak its
    # outputs, the gradient planes and one block's buffers: 45 MB when this
    # test runs alone, where the full frame stack took it to 84 MB.  The
    # outputs live in shared memory, which tracemalloc does not see, so a
    # forked child, whose VmHWM starts at the resident size it was forked
    # with, measures its own peak across the call.  One process runs every
    # block.
    use_parts(1)
    diff = EntireFunction(p=(1.0,), q=(0.0, 1.0))  # U = e^z, whose profile is exact
    prob = dev.geometric_problem(diff, WANG, GridDomain(2.0, 641))
    sol = dev.normalize(prob.profile(), prob, WANG)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            before = _peak_kb()
            dev.develop_affine_sphere(sol)
            os.write(write, b"%d" % (_peak_kb() - before))
        finally:
            os._exit(0)
    os.close(write)
    with open(read, "rb") as fh:
        rise = fh.read()
    os.waitpid(pid, 0)
    n = sol.domain.n
    assert rise, "develop failed in the child"
    assert int(rise) * 1024 < 9 * 16 * n * n


@pytest.mark.parametrize("mode, bound", [(WANG, 0.95), (HARMONIC, 1.25)])
def test_development_holds_the_frames_and_one_block(mode, bound, use_parts):
    # the frames of one block of rows, not of the grid: beside the outputs,
    # which live in shared memory, which tracemalloc does not see, the pass
    # keeps the two gradient planes, one block's frames (one column-major
    # (n, d, 3, rows) buffer) and y-transfers, one chunk's x-transfers and
    # the planes of one _BLOCK of edges, about 0.89 (WANG) and 1.17 (CMC)
    # times the bytes of a full-grid (n, n, d, 3) frame stack here, where
    # the block's fields took it to 0.98 and 1.33 and a full-grid frame stack
    # on the heap in place of the block's would take it to about 1.8 and 2.1.
    # One process runs every block: tracemalloc sees this process only
    use_parts(1)
    diff = EntireFunction(p=(1.0,), q=(0.0, 1.0))  # U = e^z, whose profile is exact
    prob = dev.geometric_problem(diff, mode, GridDomain(1.0, 385))
    sol = dev.normalize(prob.profile(), prob, mode)
    tracemalloc.start()
    try:
        if mode is WANG:
            dev.develop_affine_sphere(sol)
        else:
            dev.develop_cmc(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = sol.domain.n
    # (f, f_z, f_zbar) complex for WANG, (f, f_x, f_y, N) real for CMC
    frame_bytes = n * n * 3 * (3 * 16 if mode is WANG else 4 * 8)
    assert peak / frame_bytes < bound


def test_normalized_residual_is_evaluated_once(monkeypatch):
    # normalize gates on the residual, and develop reads the same value
    calls = []
    real = EntireFunction.log_abs
    monkeypatch.setattr(EntireFunction, "log_abs", lambda self, z: calls.append(1) or real(self, z))
    prob = dev.geometric_problem(EntireFunction(p=(1.5 + 0.5j,)), WANG, GridDomain(1.0, 41))
    calls.clear()
    sol = dev.normalize(prob.profile(), prob, WANG)
    assert len(calls) == -(-39 // dev._ROWS)  # one per block of the 39 interior rows
    dev.develop_affine_sphere(sol)
    assert len(calls) == -(-39 // dev._ROWS)


@pytest.mark.parametrize("mode", [WANG, HARMONIC])
def test_residual_in_blocks_equals_the_full_grid(mode, monkeypatch):
    # the residual of a field that does not solve the equation, with a zero
    # of the differential on the grid, as one full-grid evaluation forms it
    dom = GridDomain(0.6, 13)
    zz = dom.zz()
    w = 0.3 * np.cos(2.0 * zz.real) * np.sin(3.0 * zz.imag) + 0.1 * zz.real
    diff = EntireFunction(p=(0.0, 1.0 - 0.5j), q=(0.0, 0.3))
    la = 2.0 * diff.log_abs(zz)
    if mode is WANG:
        f = 2.0 * np.exp(w) - 4.0 * np.exp(la - 2.0 * w)
    else:
        f = np.exp(2.0 * w) - np.exp(la - 2.0 * w)
    want = float(np.max(np.abs(dom.laplacian_rows(w, 1, dom.n - 1) - f[1:-1, 1:-1])))
    for rows in (1, 4, 6, 64):
        monkeypatch.setattr(dev, "_ROWS", rows)
        assert dev.NormalizedSolution(mode, diff, dom, w).residual_norm == want


def _plane(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if dtype is complex:
        x = x + 1j * rng.standard_normal(shape)
    return x


def _matmul_planes(a, b):
    """Reference product through np.matmul on the (..., d, d) layout."""
    prod = np.matmul(np.moveaxis(a, (0, 1), (-2, -1)), np.moveaxis(b, (0, 1), (-2, -1)))
    return np.moveaxis(prod, (-2, -1), (0, 1))


@pytest.mark.parametrize("d, dtype", [(3, complex), (4, float)])
def test_plane_product_matches_matmul(d, dtype):
    rng = np.random.default_rng(7)
    shapes = [
        ((d, d, 5, 6), (d, d, 5, 6)),  # full grid stacks (transfers, holonomy loop)
        ((d, d, 7), (d, 3, 7)),        # one column of transfers times one column of frames
        ((d, d), (d, 3)),              # one node on the axis walk
    ]
    for sa, sb in shapes:
        a, b = _plane(rng, sa, dtype), _plane(rng, sb, dtype)
        got = dev._mul(a, b)
        want = _matmul_planes(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _small_grid_mats(mode):
    dom = GridDomain(1.0, 9)
    zz = dom.zz()
    w = 0.3 * np.cos(2.0 * zz.real) * np.sin(3.0 * zz.imag) + 0.1 * zz.real
    wx, wy = np.gradient(w, dom.h, edge_order=2)
    val = (0.5 + 0.25j) + zz * (1.0 - 0.5j)
    mats = dev._wang_mats if mode is WANG else dev._cmc_mats
    return dom.h, (mats(w, wx, wy, val, axis=0), mats(w, wx, wy, val, axis=1))


@pytest.mark.parametrize("mode", [WANG, HARMONIC])
def test_reverse_transfer_is_a_backward_step(mode):
    # stepping the unnegated stacks with s = -h is the reversed ODE with
    # negated coefficients, bit for bit
    h, (mx, my) = _small_grid_mats(mode)
    for ma, mm, mb in (
        (mx[:, :, :-1], 0.5 * (mx[:, :, :-1] + mx[:, :, 1:]), mx[:, :, 1:]),
        (my[..., :-1], 0.5 * (my[..., :-1] + my[..., 1:]), my[..., 1:]),
    ):
        back = dev._rk4_transfer(mb, mm, ma, -h)
        negated = dev._rk4_transfer(-mb, -mm, -ma, h)
        assert np.array_equal(back, negated)
        assert not np.array_equal(back, dev._rk4_transfer(ma, mm, mb, h))


def _full_stack_transfers(sol):
    """The four transfer stacks from full-grid coefficient stacks."""
    dom, h = sol.domain, sol.domain.h
    zz, ev = dom.zz(), sol.differential.eval
    mats = dev._wang_mats if sol.mode is WANG else dev._cmc_mats
    fields = (sol.w,) + tuple(np.gradient(sol.w, h, edge_order=2))
    mx, my = (mats(*fields, ev(zz), axis=a) for a in (0, 1))
    mmx = mats(*(0.5 * (f[:-1, :] + f[1:, :]) for f in fields), ev(zz[:-1, :] + 0.5 * h), axis=0)
    mmy = mats(*(0.5 * (f[:, :-1] + f[:, 1:]) for f in fields), ev(zz[:, :-1] + 0.5j * h), axis=1)
    rk4 = dev._rk4_transfer
    return (rk4(mx[:, :, :-1], mmx, mx[:, :, 1:], h), rk4(mx[:, :, 1:], mmx, mx[:, :, :-1], -h),
            rk4(my[..., :-1], mmy, my[..., 1:], h), rk4(my[..., 1:], mmy, my[..., :-1], -h))


def _full_stack_sweep(transfers, s0, n):
    """Frames on the fill tree from full transfer stacks, column by column
    over the whole grid, in the (n, n, rows, 3) layout."""
    tx, tx_rev, ty, ty_rev = transfers
    S = np.zeros(s0.shape + (n, n), dtype=s0.dtype)
    c = (n - 1) // 2
    S[:, :, c, c] = s0
    for i in range(c, n - 1):
        S[:, :, i + 1, c] = dev._mul(tx[:, :, i, c], S[:, :, i, c])
    for i in range(c - 1, -1, -1):
        S[:, :, i, c] = dev._mul(tx_rev[:, :, i, c], S[:, :, i + 1, c])
    for j in range(c, n - 1):
        S[..., j + 1] = dev._mul(ty[..., j], S[..., j])
    for j in range(c - 1, -1, -1):
        S[..., j] = dev._mul(ty_rev[..., j], S[..., j + 1])
    return np.ascontiguousarray(S.transpose(2, 3, 0, 1))


def _full_stack_defect(transfers, frames):
    """Worst interior plaquette ratio from full transfer stacks, in one piece."""
    tx, tx_rev, ty, ty_rev = transfers
    S = frames.transpose(2, 3, 0, 1)[..., :-1, :-1]
    rel = dev._loop_ratio(ty_rev[..., :-1, :], tx_rev[..., 1:], ty[..., 1:, :], tx[..., :-1], S)
    return float(np.max(rel[1:-1, 1:-1]))


def _full_stack_outputs(mode, frames):
    """Positions, metric, normals and the maxima of the frame checks, from
    the whole frame stack at once."""
    if mode is WANG:
        return (frames[:, :, 0, :].real, np.log(2.0 * np.abs(np.linalg.det(frames))), None,
                [float(np.max(np.abs(frames[:, :, 0, :].imag))),
                 float(np.max(np.abs(frames[:, :, 2, :] - np.conj(frames[:, :, 1, :])))), 0.0])
    fx, fy, N = frames[:, :, 1, :], frames[:, :, 2, :], frames[:, :, 3, :]
    return (frames[:, :, 0, :], np.log(0.5 * (dev.mdot(fx, fx) + dev.mdot(fy, fy))), N,
            [0.0, 0.0, float(np.max(np.abs(dev.mdot(N, N) + 1.0)))])


@pytest.mark.parametrize("block", [40, 4096])
@pytest.mark.parametrize("mode", [WANG, HARMONIC])
def test_transfers_of_a_cut_are_slices_of_the_full_stacks(mode, block, monkeypatch):
    # the field of test_blocked_transfers_equal_full_stacks; at block 40 a
    # full-width cut forms its planes 3 rows at a time, at 4096 in one piece.
    # The edges of a cut are the full stacks' edges between its nodes
    dom = GridDomain(0.6, 13)
    zz = dom.zz()
    w = 0.3 * np.cos(2.0 * zz.real) * np.sin(3.0 * zz.imag) + 0.1 * zz.real
    diff = EntireFunction(p=(0.5 + 0.25j, 1.0 - 0.5j), q=(0.0, 0.3))
    sol = dev.NormalizedSolution(mode, diff, dom, w)
    grad = tuple(np.gradient(w, dom.h, edge_order=2))
    tx, tx_rev, ty, ty_rev = _full_stack_transfers(sol)
    c = (dom.n - 1) // 2
    monkeypatch.setattr(dev, "_BLOCK", block)
    for rows, cols, axis, edges in (
        (slice(3, 10), slice(None), 0, np.s_[3:9, :]),
        (slice(3, 10), slice(None), 1, np.s_[3:10, :]),
        (slice(None), slice(c, c + 1), 0, np.s_[:, c:c + 1]),
        (slice(12, 13), slice(None), 1, np.s_[12:13, :]),
    ):
        want = np.stack([t[(slice(None), slice(None)) + edges]
                         for t in ((tx, tx_rev), (ty, ty_rev))[axis]])
        got = np.empty_like(want)
        dev._transfers(sol, grad, rows, cols, axis, *got)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("block", [40, 65])
@pytest.mark.parametrize("mode", [WANG, HARMONIC])
def test_blocked_transfers_equal_full_stacks(mode, block, monkeypatch, use_parts):
    # 13 node rows in pass blocks of 1, 4 or 6 rows (each leaves a last block
    # of one row, which has no x-edges) or in one block, with the transfers
    # of a block built 3 (block 40) or 5 (block 65) rows at a time; the
    # blocks run in 1, 2 or 3 processes (one when there is one block).  What
    # the blocks reduce their frames to equals what the frames swept from
    # full transfer stacks give, and so do the defect and the metric
    # round-trip error, max |metric - w| resp. |metric - 2 w|; holonomy_defect
    # of another solution is that solution's own full-stack defect
    dom = GridDomain(0.6, 13)
    zz = dom.zz()
    w = 0.3 * np.cos(2.0 * zz.real) * np.sin(3.0 * zz.imag) + 0.1 * zz.real
    diff = EntireFunction(p=(0.5 + 0.25j, 1.0 - 0.5j), q=(0.0, 0.3))
    sol = dev.NormalizedSolution(mode, diff, dom, w)
    other = dev.NormalizedSolution(mode, diff, dom, w + 0.05 * np.cos(3.0 * zz.real))

    def developed(s):
        full = _full_stack_transfers(s)
        frames = _full_stack_sweep(full, _start_frame(mode, s.w), dom.n)
        measured = frames
        if mode is HARMONIC:  # the pass hands back f_x = e^w e1, and measures on e1
            frames[:, :, 1:3] *= np.exp(s.w)[:, :, None, None]
            measured = frames.copy()
            measured[:, :, 1:3] *= np.exp(-s.w)[:, :, None, None]
        return frames, _full_stack_defect(full, measured)

    frames, defect = developed(sol)
    other_defect = developed(other)[1]
    positions, metric, normals, maxima = _full_stack_outputs(mode, frames)
    roundtrip = float(np.max(np.abs(metric - (w if mode is WANG else 2.0 * w))))
    monkeypatch.setattr(dev, "_BLOCK", block)
    for rows in (1, 4, 6, 64):
        monkeypatch.setattr(dev, "_ROWS", rows)
        for count in (1, 2, 3):
            use_parts(count)
            surf = dev._develop_pass(sol)
            assert surf.solution is sol
            assert np.array_equal(surf.positions, positions)
            assert np.array_equal(surf.metric, metric)
            if normals is None:
                assert surf.normals is None
            else:
                assert np.array_equal(surf.normals, normals)
            assert [surf.imag_max, surf.conj_defect, surf.hyperboloid_drift,
                    surf.holonomy_defect] == maxima + [defect]
            assert surf.metric_roundtrip_error == roundtrip
            assert dev.holonomy_defect(surf, sol) == defect
            assert dev.holonomy_defect(surf, other) == other_defect


def test_minkowski_product_signature():
    e1 = np.array([1.0, 0.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    assert dev.mdot(e1, e1) == 1.0
    assert dev.mdot(e3, e3) == -1.0


def test_cmc_development_of_degenerate_exponential():
    sol = _exact_cmc_exponential()
    surf = dev.develop_cmc(sol)
    assert surf.holonomy_defect <= 1e-6
    assert np.abs(surf.metric - 2.0 * sol.w)[1:-1, 1:-1].max() <= 1e-6
    assert np.abs(dev.mdot(surf.normals, surf.normals) + 1.0).max() <= 1e-6
    assert surf.normals[..., 2].min() >= 1.0 - 1e-9  # future-pointing sheet


@pytest.mark.xfail(
    strict=True,
    raises=ArithmeticError,
    reason="at R=3 the edge transfers see h*|coefficient| of order one "
    "(|q| e^{2x} ~ e^6), so frame propagation overflows its drift gate; "
    "develop after restricting instead",
)
def test_cmc_development_of_degenerate_exponential_wide():
    sol = _exact_cmc_exponential(R=3.0, n=121)
    surf = dev.develop_cmc(sol)
    assert surf.holonomy_defect <= 1e-6


def test_cmc_development_of_solved_field(qz_state):
    assert qz_state.surface.holonomy_defect <= 1e-4
    assert np.abs(dev.mdot(qz_state.normals, qz_state.normals) + 1.0).max() <= 1e-6
    assert qz_state.normals[..., 2].min() >= 1.0 - 1e-9


def test_jacobian_positive_for_solved_field(qz_state):
    inner = qz_state.prob.domain.inner
    assert qz_state.jac[inner, inner].min() > 0.0


def test_curvature_and_jacobian_read_h(wang_z_family, qz_state):
    # h = |phi|^2 e^{-kw} of the base field w_eq1, with phi = 4U and
    # w = w_eq1 - log 2 (k = 3), phi = 2q and w = (w_eq1 - log 2)/2 (k = 2):
    # k_h = h - 1 and J = (e^{w_eq1}/2)(1 - h), which pins both factors and
    # the log 2 shift
    wang, cmc = wang_z_family[161], qz_state
    pairs = ((blaschke_curvature(wang.sol), h_field(wang.w, wang.prob) - 1.0),
             (gauss_jacobian(cmc.sol), 0.5 * np.exp(cmc.w) * (1.0 - h_field(cmc.w, cmc.prob))))
    for field, from_h in pairs:
        assert np.max(np.abs(field - from_h)) <= 1e-13 * np.max(np.abs(field))


def test_export_mesh_obj(tmp_path):
    sol, _ = _exact_wang_constant(n=5)
    surf = dev.develop_affine_sphere(sol)
    path = tmp_path / "surface.obj"
    dev.export_mesh(surf, path)
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append([float(t) for t in line.split()[1:]])
            elif line.startswith("f "):
                faces.append([int(t) for t in line.split()[1:]])
    assert len(verts) == 25
    assert len(faces) == 2 * 16
    flat = surf.positions.reshape(-1, 3)
    assert np.abs(np.array(verts) - flat).max() <= 1e-6
    idx = np.array(faces)
    assert idx.min() == 1 and idx.max() == 25  # OBJ indices are 1-based


def test_gauss_csv(tmp_path, qz_state):
    path = tmp_path / "gauss.csv"
    dev.write_gauss_csv(path, qz_state.surface.domain, qz_state.normals)
    with open(path) as fh:
        assert fh.readline().strip() == "x,y,N1,N2,N3"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    n = qz_state.surface.domain.n
    assert data.shape == (n * n, 5)
    assert np.array_equal(data[:, 2:].reshape(n, n, 3), qz_state.normals)
