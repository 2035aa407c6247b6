"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..errors import ConfigError
from .params import ParamStore
from .tape import Var

# loss_fn maps leaf Vars (one per parameter) to a scalar Var; it may also
# return (loss, selection_signature) so the harness can detect when a
# perturbation flips a hard-argmin choice and skip that entry.
LossFn = Callable[[Mapping[str, Var]], "Var | tuple[Var, object]"]


@dataclass
class ParamCheckRow:
    name: str
    checked: int = 0
    skipped: int = 0
    max_rel_err: float = 0.0
    worst_analytic: float = 0.0
    worst_numeric: float = 0.0


@dataclass
class GradCheckReport:
    eps: float
    max_rel_err: float = 0.0
    rows: list[ParamCheckRow] = field(default_factory=list)
    aborted: bool = False
    flagged_param: str | None = None

    def passed(self, tol: float) -> bool:
        return not self.aborted and self.max_rel_err <= tol

    def format_table(self) -> str:
        lines = [f"{'parameter':<40} {'checked':>8} {'skipped':>8} {'max rel err':>14}"]
        for row in self.rows:
            lines.append(
                f"{row.name:<40} {row.checked:>8} {row.skipped:>8} {row.max_rel_err:>14.3e}"
            )
        lines.append(f"overall max rel err: {self.max_rel_err:.3e}")
        if self.aborted:
            lines.append(f"ABORTED: non-finite loss while perturbing {self.flagged_param!r}")
        return "\n".join(lines)


def _eval(loss_fn: LossFn, param_vars: Mapping[str, Var]) -> tuple[Var, object]:
    out = loss_fn(param_vars)
    if isinstance(out, tuple):
        loss, sig = out
    else:
        loss, sig = out, None
    return loss, sig


def grad_check(loss_fn: LossFn, params: ParamStore, eps: float) -> GradCheckReport:
    """Compare analytic gradients with (f(x+eps) - f(x-eps)) / (2 eps).

    Relative error per entry is |a - n| / max(1, |a|, |n|). Entries whose
    perturbation changes the selection signature are skipped rather than
    compared; a non-finite loss flags the parameter and aborts the check.
    The perturbed evaluations are never differentiated, so they reuse the
    baseline's leaf Vars, which view the parameter values being perturbed.
    """
    if eps <= 0:
        raise ConfigError(f"grad_check: eps must be positive, got {eps}")

    report = GradCheckReport(eps=eps)

    pv = params.as_vars()
    loss_var, base_sig = _eval(loss_fn, pv)
    base_loss = float(loss_var.value)
    if not math.isfinite(base_loss):
        report.aborted = True
        report.flagged_param = "<baseline>"
        return report
    loss_var.backward()
    analytic = {
        name: (pv[name].grad if pv[name].grad is not None else np.zeros_like(arr))
        for name, arr in params.items()
    }

    for name, arr in params.items():
        row = ParamCheckRow(name=name)
        flat = arr.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            loss_p, sig_p = _eval(loss_fn, pv)
            flat[i] = orig - eps
            loss_m, sig_m = _eval(loss_fn, pv)
            flat[i] = orig

            lp, lm = float(loss_p.value), float(loss_m.value)
            if not (math.isfinite(lp) and math.isfinite(lm)):
                report.aborted = True
                report.flagged_param = name
                report.rows.append(row)
                return report
            if sig_p != base_sig or sig_m != base_sig:
                row.skipped += 1
                continue

            numeric = (lp - lm) / (2.0 * eps)
            a = float(a_flat[i])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            row.checked += 1
            if rel > row.max_rel_err:
                row.max_rel_err = rel
                row.worst_analytic = a
                row.worst_numeric = numeric
        report.rows.append(row)
        report.max_rel_err = max(report.max_rel_err, row.max_rel_err)

    return report
