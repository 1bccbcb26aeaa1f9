"""The reference network: layer specs and shape rules (``layers``, no numpy),
the trainer (``network``) and its random streams (``rng``). Only the specs
are re-exported here, so reading a spec or checking a state's shapes does
not import numpy."""

from forge.nn.layers import (
    DENSE,
    DROPOUT,
    LAMBDA,
    RELU,
    SIGMOID,
    TANH,
    LayerSpec,
    NetworkSpec,
    check_shapes,
    clear_lambdas,
    infer_shapes,
    lambda_impl,
    param_shapes,
    register_lambda,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
    validate_spec,
)
