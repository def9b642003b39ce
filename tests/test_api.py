import numpy as np
import pytest

import nncp


def test_public_names_resolve():
    assert nncp.__all__ == sorted(set(nncp.__all__))
    for name in nncp.__all__:
        assert getattr(nncp, name) is not None
    namespace = {}
    exec("from nncp import *", namespace)
    assert set(nncp.__all__) <= set(namespace)


_T = nncp.DenseTensor([3], [1.0, 2.0, 3.0])
_KL, _E = nncp.DivergenceKind.KL, nncp.DivergenceKind.E_NORM
_TENSOR_ARGUMENTS = {
    "add_scaled a": ("a", lambda x: nncp.add_scaled(x, _T, 1.0, 1.0)),
    "add_scaled b": ("b", lambda x: nncp.add_scaled(_T, x, 1.0, 1.0)),
    "norm": ("a", lambda x: nncp.norm(x, "E")),
    "inner a": ("a", lambda x: nncp.inner(x, _T)),
    "inner b": ("b", lambda x: nncp.inner(_T, x)),
    "tensor_to_json": ("a", nncp.tensor_to_json),
    "distance KL a": ("a", lambda x: nncp.distance(x, _T, _KL)),
    "distance KL b": ("b", lambda x: nncp.distance(_T, x, _KL)),
    "distance E a": ("a", lambda x: nncp.distance(x, _T, _E)),
    "distance E b": ("b", lambda x: nncp.distance(_T, x, _E)),
    "kl_phi": ("a", nncp.kl_phi),
    "bregman a": ("a", lambda x: nncp.bregman_from_phi(x, _T, 0.0, 0.0, _T)),
    "bregman b": ("b", lambda x: nncp.bregman_from_phi(_T, x, 0.0, 0.0, _T)),
    "bregman grad": ("grad_phi_b", lambda x: nncp.bregman_from_phi(_T, _T, 0.0, 0.0, x)),
    "objective": (
        "the target",
        lambda x: nncp.objective(x, nncp.random_model([3], 1, seed=0), nncp.Loss.FROBENIUS),
    ),
    "run_contrast_experiment": ("the target", lambda x: nncp.run_contrast_experiment(x, 1, [0])),
}


@pytest.mark.parametrize("entry", list(_TENSOR_ARGUMENTS))
@pytest.mark.parametrize("value", [np.ones(3), [1.0, 2.0], None], ids=["array", "list", "None"])
def test_a_tensor_argument_that_is_not_a_dense_tensor_raises(entry, value):
    # Not a numpy TypeError or AttributeError, nor norm(np.ones(3), "E") == 3.0.
    what, call = _TENSOR_ARGUMENTS[entry]
    message = f"{what} must be a DenseTensor, got {type(value).__name__}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(value)


_CFG_ARGUMENTS = {
    "fit_nncp": lambda x: nncp.fit_nncp(_T, x),
    "fit_cp_unconstrained": lambda x: nncp.fit_cp_unconstrained(_T, x),
    "fit_seeds": lambda x: nncp.fit_seeds(_T, x, [0]),
    "fit_seeds without seeds": lambda x: nncp.fit_seeds(_T, x, []),
}


@pytest.mark.parametrize("entry", list(_CFG_ARGUMENTS))
@pytest.mark.parametrize("value", [None, {"rank": 2}], ids=["None", "dict"])
def test_a_cfg_argument_that_is_not_a_fit_config_raises(entry, value):
    # Not an AttributeError naming the missing nonneg field.
    message = f"cfg must be a FitConfig, got {type(value).__name__}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        _CFG_ARGUMENTS[entry](value)


_M = nncp.random_model([3], 1, seed=0)
_MODEL_AND_TRACE_ARGUMENTS = {
    "reconstruct": ("model", "KruskalModel", nncp.reconstruct),
    "normalize": ("model", "KruskalModel", nncp.normalize),
    "l2_normalize": ("model", "KruskalModel", nncp.l2_normalize),
    "to_naive_bayes": ("model", "KruskalModel", nncp.to_naive_bayes),
    "model_to_json": ("model", "KruskalModel", nncp.model_to_json),
    "write_model": ("model", "KruskalModel", lambda x: nncp.write_model(x, "unwritten.json")),
    "delta_l1_equals_e_norm_check": ("model", "KruskalModel", nncp.delta_l1_equals_e_norm_check),
    "objective": ("model", "KruskalModel", lambda x: nncp.objective(_T, x, nncp.Loss.FROBENIUS)),
    "detect_degeneracy": ("trace", "FitTrace", lambda x: nncp.detect_degeneracy(x, (1.0, 1.0))),
}


@pytest.mark.parametrize("entry", list(_MODEL_AND_TRACE_ARGUMENTS))
@pytest.mark.parametrize("value", [np.ones(3), None], ids=["array", "None"])
def test_a_model_or_trace_argument_of_another_type_raises(entry, value):
    # Not an AttributeError, nor a shape mismatch naming the array's shape.
    what, kind, call = _MODEL_AND_TRACE_ARGUMENTS[entry]
    message = f"{what} must be a {kind}, got {type(value).__name__}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(value)
