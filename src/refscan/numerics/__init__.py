from .gradcheck import GradCheckReport, ParamCheckRow, grad_check
from .linalg import dense, linear, softmax, uniform_init
from .params import ParamStore
from .tape import Var

__all__ = [
    "GradCheckReport",
    "ParamCheckRow",
    "ParamStore",
    "Var",
    "dense",
    "grad_check",
    "linear",
    "softmax",
    "uniform_init",
]
