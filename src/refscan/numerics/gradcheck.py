"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..errors import ConfigError
from . import fork
from .params import ParamStore
from .tape import Var

# loss_fn maps the store's leaf Vars (one per parameter) to a scalar Var; it
# may also return (loss, selection_signature) so the harness can detect when
# a perturbation flips a hard-argmin choice and skip that entry.
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


def _eval(loss_fn: LossFn, leaves: Mapping[str, Var]) -> tuple[Var, float, object]:
    """The loss, its value read before any entry moves again, and the signature."""
    out = loss_fn(leaves)
    if isinstance(out, tuple):
        loss, sig = out
    else:
        loss, sig = out, None
    return loss, float(loss.value), sig


def grad_check(loss_fn: LossFn, params: ParamStore, eps: float) -> GradCheckReport:
    """Compare analytic gradients with (f(x+eps) - f(x-eps)) / (2 eps).

    Relative error per entry is |a - n| / max(1, |a|, |n|). Entries whose
    perturbation changes the selection signature are skipped rather than
    compared; a non-finite loss flags the parameter and aborts the check,
    and a non-finite analytic or numeric gradient entry fails it with an
    infinite error. Every evaluation gets the store's ``leaves``, which view
    the values being perturbed. Only the baseline is differentiated, into
    the store's zeroed gradients, where the analytic gradient is read.

    Each probe (the +eps and -eps evaluations of one scalar) is independent
    of the others, so after the baseline and its backward the probes are
    dealt over one process per usable CPU (``fork.deal``): each worker
    inherits the baseline and writes each of its scalars' two losses, and
    whether a signature flipped, into a table it shares with this process,
    which folds the table in entry order. A probe with a non-finite loss
    stops the deal there, as it aborts the check. So the report, and the
    first exception in entry order, are those of probing every scalar in
    one process, which is all a one-CPU host runs.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError(f"grad_check: eps must be positive and finite, got {eps}")

    report = GradCheckReport(eps=eps)

    params.zero_grads()
    loss_var, base_loss, base_sig = _eval(loss_fn, params.leaves)
    if not math.isfinite(base_loss):
        report.aborted = True
        report.flagged_param = "<baseline>"
        return report
    loss_var.backward()

    values, grads = params.flat_values, params.flat_grads

    def probe(j: int, row: np.ndarray) -> bool:
        """Entry ``j``'s two losses and whether either signature flipped,
        into ``row``; whether a loss is non-finite."""
        orig = values[j]
        try:
            values[j] = orig + eps
            _, lp, sig_p = _eval(loss_fn, params.leaves)
            values[j] = orig - eps
            _, lm, sig_m = _eval(loss_fn, params.leaves)
        finally:
            values[j] = orig
        row[:] = lp, lm, sig_p != base_sig or sig_m != base_sig
        return not (math.isfinite(lp) and math.isfinite(lm))

    probes = fork.deal(lambda: range(values.size), probe, values.size, 3)
    for name, span in params.flat_slices():
        row = ParamCheckRow(name=name)
        for j in range(span.start, span.stop):
            lp, lm, flipped = probes[j].tolist()
            if not (math.isfinite(lp) and math.isfinite(lm)):
                report.aborted = True
                report.flagged_param = name
                report.rows.append(row)
                return report
            if flipped:
                row.skipped += 1
                continue

            numeric = (lp - lm) / (2.0 * eps)
            a = float(grads[j])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if not (math.isfinite(a) and math.isfinite(numeric)):
                rel = math.inf
            row.checked += 1
            if rel > row.max_rel_err:
                row.max_rel_err = rel
                row.worst_analytic = a
                row.worst_numeric = numeric
        report.rows.append(row)
        report.max_rel_err = max(report.max_rel_err, row.max_rel_err)

    return report
