from .gradcheck import GradCheckReport, ParamCheckRow, grad_check
from .linalg import softmax, uniform_init
from .params import ParamStore
from .tape import Var

__all__ = [
    "GradCheckReport",
    "ParamCheckRow",
    "ParamStore",
    "Var",
    "grad_check",
    "softmax",
    "uniform_init",
]
