"""Malformed input fails with a SympindexError before any numerics run.

The suite runs with warnings as errors, so a NaN or infinite entry that
reached arithmetic (or LAPACK) first would fail these tests too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sympindex import (ConstPath, ContractError, DimensionError, ExpPath,
                       LoopPath, ParameterError, SympindexError,
                       SympMatrix, complex_det, cz_dim2_closed_form,
                       extension_winding, lagrangian_rs_index, make_shear,
                       normal_form, rho, rs2_index, rs_index,
                       semisimple_perturb, vertical_frame)
from sympindex.lagrangian import LagrangianFrame
from sympindex.spectral import (eigen_quadruples, first_kind_eigenvalues,
                                generalized_eigenspace, krein_form)
from sympindex.tolerances import DEFAULT_TOL, ToleranceProfile

NAN_2 = [[np.nan, 0.0], [0.0, 1.0]]
WIDE = np.ones((2, 3))

REPRODUCERS = {
    "rho-nan": lambda: rho(NAN_2),
    "first-kind-nan": lambda: first_kind_eigenvalues(NAN_2),
    "rho-2x3": lambda: rho(WIDE),
    "krein-nan": lambda: krein_form(NAN_2, 1j),
    "krein-2x3": lambda: krein_form(WIDE, 1j),
    "eigenspace-nan": lambda: generalized_eigenspace(NAN_2, 1j),
    "eigenspace-2x3": lambda: generalized_eigenspace(WIDE, 1j),
    "frame-nan": lambda: LagrangianFrame(frame=[[np.nan], [1.0]]),
    "const-nan": lambda: ConstPath(matrix=np.nan),
    "const-nan-entry": lambda: ConstPath(matrix=NAN_2),
    "exp-nan": lambda: ExpPath(s_matrix=np.nan),
    "exp-nan-entry": lambda: ExpPath(s_matrix=NAN_2),
    "shear-nan": lambda: rs_index(make_shear(([[np.nan]], [[1.0]]))),
    "shear-nan-rs2": lambda: rs2_index(make_shear(([[np.nan]], [[1.0]]))),
    "extension-nan": lambda: extension_winding(NAN_2),
    "extension-2x3": lambda: extension_winding(WIDE),
    "complex-det-nan": lambda: complex_det(NAN_2),
    "closed-form-inf": lambda: cz_dim2_closed_form([[np.inf, 0.0], [0.0, 1.0]], 1.0),
    "rho-text": lambda: rho("abc"),
    "rho-ragged": lambda: rho([[1.0, 2.0], [3.0]]),
    "const-text": lambda: ConstPath(matrix="abc"),
    "exp-ragged": lambda: ExpPath(s_matrix=[[1.0, 2.0], [3.0]]),
    "normal-form-object": lambda: normal_form(object()),
    "normal-form-scalar": lambda: normal_form(3.0),
    "symp-matrix-text": lambda: SympMatrix("abc"),
    "lagrangian-frame-3x1": lambda: lagrangian_rs_index(
        lambda t: np.ones((3, 1)), vertical_frame(1)),
    "lagrangian-frame-2x2": lambda: lagrangian_rs_index(
        lambda t: np.ones((2, 2)), vertical_frame(1)),
    "lagrangian-frame-nan": lambda: lagrangian_rs_index(
        lambda t: np.array([[np.nan], [1.0]]), vertical_frame(1)),
    "eigenspace-lam-nan": lambda: generalized_eigenspace(np.eye(2), np.nan),
    "loop-wind-nan": lambda: LoopPath(wind=np.nan, dim_n=1),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["tol_symp", "tol_eig", "tol_kernel",
                                  "tol_form", "tol_nf", "max_refine"])
def test_non_finite_tolerance_is_a_parameter_error(name, value):
    # NaN compares False with 0, and was once taken for a tolerance
    with pytest.raises(ParameterError, match=name):
        ToleranceProfile(**{name: value})
    with pytest.raises(ParameterError, match=name):
        DEFAULT_TOL.with_overrides(**{name: value})


@pytest.mark.parametrize("name", sorted(REPRODUCERS))
def test_malformed_input_raises_a_typed_error(name):
    with pytest.raises(SympindexError):
        REPRODUCERS[name]()


@pytest.mark.parametrize("matrix,error", [
    (NAN_2, ContractError), (WIDE, DimensionError),
    (np.eye(3), DimensionError), (2.0 * np.eye(2), ContractError)])
def test_semisimple_perturb_rejects_malformed_input(matrix, error):
    with pytest.raises(error):
        semisimple_perturb(matrix)


FINITE = st.floats(-1e3, 1e3)
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
# (shape of size k, whether a shape is wrong) for matrices and for frames
SQUARE = (lambda k: (2 * k, 2 * k), lambda r, c: r != c or r % 2)
FRAME = (lambda k: (2 * k, k), lambda r, c: r != 2 * c)


@st.composite
def malformed(draw, shape_of, misshapen):
    """An array of a valid shape with a NaN or infinite entry, or an array
    of a wrong shape."""
    if draw(st.booleans()):
        shape = shape_of(draw(st.integers(1, 3)))
        a = draw(arrays(float, shape, elements=FINITE))
        a[draw(st.integers(0, shape[0] - 1)),
          draw(st.integers(0, shape[1] - 1))] = draw(NON_FINITE)
        return a
    shape = draw(st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(
        lambda s: misshapen(*s)))
    return draw(arrays(float, shape, elements=FINITE | NON_FINITE))


ENTRY_POINTS = {
    "rho": rho,
    "eigen_quadruples": eigen_quadruples,
    "normal_form": normal_form,
    "krein_form": lambda a: krein_form(a, 1j),
    "ConstPath": lambda a: ConstPath(matrix=a),
    "ExpPath": lambda a: ExpPath(s_matrix=a),
    "LagrangianFrame": lambda a: LagrangianFrame(frame=a),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_entry_points_raise_only_typed_errors(entry, data):
    a = data.draw(malformed(*(FRAME if entry == "LagrangianFrame" else SQUARE)))
    with pytest.raises(SympindexError):
        ENTRY_POINTS[entry](a)
