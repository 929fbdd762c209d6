"""kanrelu: a verified transpiler between piecewise linear KANs and ReLU networks."""

from .convert import (
    FREE,
    STRUCTURAL,
    ConversionMode,
    kan_layer_to_relu,
    kan_to_mlp,
    mlp_to_kan,
)
from .core import (
    Activation,
    Kan,
    KanLayer,
    Mlp,
    MlpLayer,
    PiecewiseLinear,
    PolySegmentSpline,
    eval_kan,
    eval_mlp,
    eval_pl,
    normalize_pl,
)
from .counting import (
    ClassSignature,
    EmbeddingReport,
    LayerCounts,
    ParamReport,
    class_embedding_check,
    count_params_kan,
    count_params_mlp,
    kan_region_upper_bound,
    kan_to_relu_param_formula,
    mlp_dense_param_formula,
    regions_per_parameter,
    relu_region_upper_bound,
    relu_to_kan_param_formula,
    signature_of_kan,
    signature_of_mlp,
    uniform_segment_count,
)
from .equiv import EquivReport, assert_equiv, equiv_exact_1d, halton_points
from .errors import (
    DomainError,
    ParseError,
    ShapeError,
    UnsupportedDimensionError,
    ValidationError,
)
from .regions import (
    Complex1D,
    Piece,
    RegionGrid,
    composition_segment_bound,
    exact_regions_1d,
    grid_fingerprint_2d,
)
from .serialize import dumps_model, load, loads_model, save
from .splines import (
    MonomialReluBlock,
    MonomialReluNetwork,
    SplineKan,
    bspline_from_knots,
    bspline_to_monomial_relu,
    eval_monomial_relu,
    monomial_relu_to_spline_kan,
    poly_eval,
    shift_poly,
)

__version__ = "0.1.0"
