import numpy as np
import pytest

from reference import (
    diagonal_projection,
    gaussian_general,
    identity,
    inner_trace,
    normalized_trace,
    product,
    random_element,
)
from towerforms.tower import AlgebraElement
from towerforms.expectations import cond_expect
from towerforms.forms import commutator_form_eval
from towerforms.derivation import (
    BimoduleVector,
    bimodule_inner,
    bimodule_left,
    bimodule_right,
    derive,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def commutator_oracle(p: np.ndarray, b: np.ndarray) -> np.ndarray:
    return p @ b - b @ p


def test_derive_frozen_example():
    f = derive(AlgebraElement(1, X), 1)
    np.testing.assert_array_equal(f.stack[0], [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(f.stack[1], [[0.0, -1.0], [1.0, 0.0]])


def test_derive_matches_commutator_oracle():
    rng = np.random.default_rng(90)
    for level, n in [(2, 2), (3, 2), (3, 1)]:
        d = 2 ** level
        a = AlgebraElement(level, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        f = derive(a, n)
        b = cond_expect(a, n).entries
        assert f.level == n and len(f.stack) == 2 ** n
        for j, comp in enumerate(f.stack):
            p = diagonal_projection(n, j).entries
            np.testing.assert_allclose(comp, commutator_oracle(p, b), atol=1e-13)


def test_derive_kills_diagonal_and_unit():
    d = AlgebraElement(2, np.diag([1.0, 2.0, 3.0, 4.0]))
    assert all(np.abs(c).max() == 0.0 for c in derive(d, 2).stack)
    assert all(np.abs(c).max() == 0.0 for c in derive(identity(3), 2).stack)


def test_derive_is_linear():
    rng = np.random.default_rng(91)
    a = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    b = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    lam = 1.2 - 0.7j
    lhs = derive(AlgebraElement(2, lam * a.entries + b.entries), 2)
    fa, fb = derive(a, 2), derive(b, 2)
    for l, ca, cb in zip(lhs.stack, fa.stack, fb.stack):
        np.testing.assert_allclose(l, lam * ca + cb, atol=1e-13)


def test_derive_vanishes_iff_expectation_diagonal():
    a = AlgebraElement(2, np.kron(X, np.eye(2)))
    f = derive(a, 1)
    assert any(np.abs(c).max() > 0.5 for c in f.stack)
    diag_only = AlgebraElement(2, np.kron(X, X))  # level-1 expectation vanishes
    assert all(np.abs(c).max() == 0.0 for c in derive(diag_only, 1).stack)


# --------------------------------------------------------------------------
# bimodule structure
# --------------------------------------------------------------------------


def test_bimodule_vector_validates_shape():
    """A level-1 vector needs factors of shapes (2, d, r) and (2, r, d) with
    d a power of two and r >= 1."""
    bad = [
        ((2, 4, 2), (2, 3, 4)),  # mismatched rank
        ((4, 4, 2), (4, 2, 4)),  # wrong component count
        ((2, 4, 2), (4, 2, 4)),  # component counts differ
        ((2, 3, 2), (2, 2, 3)),  # d not a power of two
        ((2, 4, 2), (2, 2, 8)),  # carrier sizes differ
        ((2, 4, 0), (2, 0, 4)),  # empty rank
        ((2, 0, 1), (2, 1, 0)),  # empty carrier
        ((2, 4), (2, 4)),  # wrong ndim
        ((2, 4, 1), (2, 1, 4, 1)),
    ]
    for left, right in bad:
        with pytest.raises(ValueError, match="factors of shapes"):
            BimoduleVector(1, np.zeros(left), np.zeros(right))


def test_stack_is_read_only_and_writable_input_is_copied():
    raw_left, raw_right = np.ones((2, 4, 1)), np.ones((2, 1, 4))
    f = BimoduleVector(1, raw_left, raw_right)
    assert f.left.dtype == f.right.dtype == np.complex128 and f.carrier_level == 2
    raw_left[0, 0, 0] = raw_right[0, 0, 0] = 5.0
    assert f.left[0, 0, 0] == f.right[0, 0, 0] == 1.0
    np.testing.assert_array_equal(f.stack, np.ones((2, 4, 4)))
    for arr in (f.left, f.right, f.stack):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 2.0
    frozen_real = np.ones((2, 4, 1))
    frozen_real.setflags(write=False)
    assert BimoduleVector(1, frozen_real, raw_right).left.dtype == np.complex128
    g = derive(AlgebraElement(1, X), 1)
    assert not (g.left.flags.writeable or g.right.flags.writeable)
    # a complex128 input is copied too, read-only (derive's) or not: no
    # factor shares memory with its input
    complex_left = np.ones((2, 4, 1), dtype=np.complex128)
    for left, right in [(g.left, g.right), (complex_left, raw_right)]:
        h = BimoduleVector(1, left, right)
        assert not (h.left.flags.writeable or h.right.flags.writeable)
        assert not np.shares_memory(h.left, left)
        assert not np.shares_memory(h.right, right)
        np.testing.assert_array_equal(h.left, left)
        np.testing.assert_array_equal(h.right, right)


def _generic_vector(n: int, rng) -> BimoduleVector:
    """A full-rank vector: left is the identity in every component, so the
    components are the random dense stack right."""
    d = 2 ** n
    left = np.broadcast_to(np.eye(d), (d, d, d))
    right = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
    return BimoduleVector(n, left, right)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_batched_layers_match_componentwise_loops(n):
    """derive, both actions and the inner product against the per-component
    loops they replace, on a derived vector and on a generic full-rank one."""
    rng = np.random.default_rng(100 + n)
    d = 2 ** n
    top = max(n, 5)
    a = AlgebraElement(n, gaussian_general(d, rng))
    amb = AlgebraElement(top, gaussian_general(2 ** top, rng))
    b = cond_expect(amb, n).entries
    f = derive(amb, n)
    loop = np.zeros((d, d, d), dtype=complex)
    for j in range(d):
        loop[j, j, :] = b[j, :]
        loop[j, :, j] -= b[:, j]
    np.testing.assert_array_equal(f.stack, loop)

    g = _generic_vector(n, rng)
    np.testing.assert_array_equal(g.stack, g.right)
    for v in (f, g):
        stack = v.stack
        left = bimodule_left(a, v).stack
        right = bimodule_right(v, a).stack
        for j in range(d):
            np.testing.assert_allclose(left[j], a.entries @ stack[j], atol=1e-12)
            np.testing.assert_allclose(right[j], stack[j] @ a.entries, atol=1e-12)
    for v, w in [(f, g), (g, f), (g, g)]:
        inner = sum(cv.conj().T @ cw for cv, cw in zip(v.stack, w.stack))
        np.testing.assert_allclose(bimodule_inner(v, w).entries, inner, atol=1e-11)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_ranks_of_derive_actions_and_sums(n):
    """derive has rank 2, the actions keep the rank, + and - add ranks; the
    components agree with the per-component loops."""
    rng = np.random.default_rng(200 + n)
    d = 2 ** n
    a = AlgebraElement(n, gaussian_general(d, rng))
    f = derive(AlgebraElement(n, gaussian_general(d, rng)), n)
    g = _generic_vector(n, rng)
    assert f.left.shape == (d, d, 2) and f.right.shape == (d, 2, d)
    for v in (f, g):
        rank = v.left.shape[-1]
        for acted in (bimodule_left(a, v), bimodule_right(v, a)):
            assert acted.left.shape[-1] == acted.right.shape[1] == rank
    f_stack, g_stack = f.stack, g.stack
    for total, sign in [(f + g, 1.0), (f - g, -1.0)]:
        assert total.left.shape[-1] == total.right.shape[1] == 2 + d
        stack = total.stack
        for j in range(d):
            np.testing.assert_allclose(
                stack[j], f_stack[j] + sign * g_stack[j], atol=1e-12
            )


def test_unit_acts_trivially():
    f = derive(AlgebraElement(1, X), 1)
    one = identity(1)
    for g in (bimodule_left(one, f), bimodule_right(f, one)):
        for cf, cg in zip(f.stack, g.stack):
            np.testing.assert_array_equal(cf, cg)


def test_left_action_matches_componentwise_oracle():
    f = derive(AlgebraElement(1, X), 1)
    p1 = diagonal_projection(1, 0)
    g = bimodule_left(p1, f)
    for cf, cg in zip(f.stack, g.stack):
        np.testing.assert_array_equal(cg, p1.entries @ cf)


def test_actions_commute_and_associate():
    rng = np.random.default_rng(92)
    f = derive(AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))), 2)
    a = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    b = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    lhs = bimodule_right(bimodule_left(a, f), b)
    rhs = bimodule_left(a, bimodule_right(f, b))
    for cl, cr in zip(lhs.stack, rhs.stack):
        np.testing.assert_allclose(cl, cr, atol=1e-12)
    lhs2 = bimodule_left(product(a, b), f)
    rhs2 = bimodule_left(a, bimodule_left(b, f))
    for cl, cr in zip(lhs2.stack, rhs2.stack):
        np.testing.assert_allclose(cl, cr, atol=1e-12)


def test_action_level_mismatch_rejected():
    f = derive(AlgebraElement(1, X), 1)
    with pytest.raises(ValueError, match="mismatch"):
        bimodule_left(identity(2), f)


def test_inner_product_frozen_example():
    f = derive(AlgebraElement(1, X), 1)
    np.testing.assert_allclose(bimodule_inner(f, f).entries, 2.0 * np.eye(2), atol=0)


def test_inner_product_of_zero():
    z = AlgebraElement(1, np.zeros((2, 2)))
    f = derive(z, 1)
    assert np.abs(bimodule_inner(f, f).entries).max() == 0.0


def test_inner_product_adjoint_symmetry_and_psd():
    rng = np.random.default_rng(93)
    for _ in range(10):
        a = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        b = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        f, g = derive(a, 2), derive(b, 2)
        fg = bimodule_inner(f, g)
        gf = bimodule_inner(g, f)
        np.testing.assert_allclose(fg.entries.conj().T, gf.entries, atol=1e-12)
        ff = bimodule_inner(f, f)
        assert np.linalg.eigvalsh(ff.entries)[0] >= -1e-12
        assert normalized_trace(ff).real >= -1e-12


def test_inner_product_mismatch_rejected():
    f = derive(AlgebraElement(1, X), 1)
    g = derive(identity(2), 2)
    with pytest.raises(ValueError, match="mismatch"):
        bimodule_inner(f, g)


# --------------------------------------------------------------------------
# Leibniz rule and energy identity
# --------------------------------------------------------------------------


def test_leibniz_anchor_squares_to_zero():
    # d(X^2) = d(1) = 0 and the two action terms cancel exactly
    x = AlgebraElement(1, X)
    lhs = derive(product(x, x), 1)
    rhs = bimodule_right(derive(x, 1), x) + bimodule_left(x, derive(x, 1))
    for cl, cr in zip(lhs.stack, rhs.stack):
        assert np.abs(cl).max() == 0.0
        assert np.abs(cr).max() < 1e-14


def test_leibniz_holds_at_own_level():
    rng = np.random.default_rng(94)
    for n in (1, 2, 3):
        d = 2 ** n
        for _ in range(30):
            a = AlgebraElement(n, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            b = AlgebraElement(n, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            lhs = derive(product(a, b), n)
            rhs = bimodule_right(derive(a, n), b) + bimodule_left(a, derive(b, n))
            for cl, cr in zip(lhs.stack, rhs.stack):
                assert np.abs(cl - cr).max() < 1e-10


def test_leibniz_genuinely_fails_above_its_level():
    """Conditioning is not multiplicative, so for generic higher-level
    inputs the product rule composed with the expectation breaks; the
    boundary is real, not a tolerance artifact."""
    rng = np.random.default_rng(99)
    a = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    b = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    lhs = derive(product(a, b), 1)
    rhs = bimodule_right(derive(a, 1), cond_expect(b, 1)) + bimodule_left(
        cond_expect(a, 1), derive(b, 1)
    )
    err = max(
        np.abs(cl - cr).max()
        for cl, cr in zip(lhs.stack, rhs.stack)
    )
    assert err > 1e-2


def test_energy_identity():
    rng = np.random.default_rng(95)
    for n in (1, 2):
        for _ in range(20):
            a = AlgebraElement(3, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
            f = derive(a, n)
            energy = normalized_trace(bimodule_inner(f, f)).real
            assert abs(energy - commutator_form_eval(a, n)) < 1e-10
            assert abs(inner_trace(f) - normalized_trace(bimodule_inner(f, f))) < 1e-12


def test_actions_are_componentwise_by_construction():
    """Strong-locality witness: the carrier is a direct sum of trivial
    one-component bimodules, i.e. both actions touch components
    independently. Component j of a.f is a f(j) and of f.a is f(j) a, bit
    for bit: the left factor of a f(j) is block j of the one product of a
    with the left factors side by side, and the right factor of f(j) a is
    f(j)'s right factor times a, each reading the rank factors of f(j)
    alone; changing one component of f leaves every other component of a.f
    and f.a unchanged bit for bit."""
    rng = np.random.default_rng(96)
    f = derive(AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))), 2)
    a = random_element(2, "general", 97)
    left = bimodule_left(a, f)
    right = bimodule_right(f, a)
    np.testing.assert_array_equal(left.right, f.right)
    np.testing.assert_array_equal(right.left, f.left)
    r = f.left.shape[-1]
    side_by_side = a.entries @ np.concatenate(list(f.left), axis=1)  # (d, k r)
    for j in range(len(f.stack)):
        a_left = side_by_side[:, j * r:(j + 1) * r]
        right_a = f.right[j] @ a.entries
        np.testing.assert_array_equal(left.left[j], a_left)
        # a product of a f(j) alone rounds apart from the block, at the ulp level
        np.testing.assert_allclose(a_left, a.entries @ f.left[j], rtol=0, atol=1e-14)
        np.testing.assert_array_equal(right.right[j], right_a)
        np.testing.assert_array_equal(left.stack[j], a_left @ f.right[j])
        np.testing.assert_array_equal(right.stack[j], f.left[j] @ right_a)
        # against the dense component, (a L) R rounds apart from a (L R)
        np.testing.assert_allclose(
            left.stack[j], a.entries @ f.stack[j], rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(
            right.stack[j], f.stack[j] @ a.entries, rtol=0, atol=1e-14
        )
    changed_left, changed_right = np.array(f.left), np.array(f.right)
    changed_left[0] += 1.0
    changed_right[0] -= 1.0
    g = BimoduleVector(2, changed_left, changed_right)
    for acted_f, acted_g in [(left, bimodule_left(a, g)), (right, bimodule_right(g, a))]:
        np.testing.assert_array_equal(acted_f.stack[1:], acted_g.stack[1:])
        assert np.abs(acted_f.stack[0] - acted_g.stack[0]).max() > 0.1

