"""Plain-numpy references that the scoring workload checks tandemopt against.

The forward pass works from the checkpoint dict of a scorer (``to_json_dict``)
as one matrix product per layer. The metric sweep follows the conventions in
tandemopt.metrics (accept iff score > tau; candidate thresholds are midpoints
of consecutive distinct scores plus one sentinel on each side; ties go to the
smallest threshold), but it counts with one histogram over the distinct
scores instead of per-class sorted searches, and it works from arrays rather
than from ScoreSet and ClassScores.
"""

from __future__ import annotations

import numpy as np

TARGET, NONTARGET, SPOOF = 0, 1, 2


def forward(scorer: dict, x: np.ndarray) -> np.ndarray:
    """Scores of every row of x under a scorer given as its checkpoint dict."""
    layers = list(zip(scorer["weights"], scorer["biases"]))
    a = np.asarray(x, dtype=np.float64)
    for i, (w, b) in enumerate(layers):
        z = a @ np.asarray(w, dtype=np.float64).T + np.asarray(b, dtype=np.float64)
        if i == len(layers) - 1:
            a = z
        elif scorer["activation"] == "tanh":
            a = np.tanh(z)
        else:
            a = np.maximum(z, 0.0)
    return a[:, 0]


def _sweep(candidates_from: np.ndarray, *groups: np.ndarray):
    """Thresholds over the distinct values of ``candidates_from`` and, per group,
    how many of its values lie at or below each threshold (every group must be
    a subset of ``candidates_from``)."""
    distinct = np.unique(candidates_from)
    taus = np.concatenate(
        ([distinct[0] - 1.0], (distinct[:-1] + distinct[1:]) / 2.0, [distinct[-1] + 1.0])
    )
    counts = []
    for values in groups:
        hist = np.bincount(np.searchsorted(distinct, values), minlength=distinct.size)
        counts.append(np.concatenate(([0], np.cumsum(hist))))
    return taus, counts


def eer(pos: np.ndarray, neg: np.ndarray) -> tuple[float, float]:
    """(EER, threshold) with the rates averaged at the closest crossing."""
    taus, (pos_le, neg_le) = _sweep(np.concatenate([pos, neg]), pos, neg)
    p_miss = pos_le / pos.size
    p_fa = (neg.size - neg_le) / neg.size
    i = int(np.argmin(np.abs(p_miss - p_fa)))
    return float((p_miss[i] + p_fa[i]) / 2.0), float(taus[i])


def _tdcf(p, p_a, p_b, p_c, p_d):
    return (
        p.c_miss * p.rho_tar * (p_a + p_d)
        + p.c_fa * p.rho_non * p_b
        + p.c_fa_spoof * p.rho_spoof * p_c
    )


def report(asv: np.ndarray, cm: np.ndarray, classes: np.ndarray, attacks: np.ndarray, p) -> dict:
    """The fields of MetricReport.to_json_dict, computed from aligned arrays.

    ``classes`` holds TARGET, NONTARGET or SPOOF per trial; ``attacks`` the
    attack id of each spoof trial (ignored for bonafide trials).
    """
    tb, nb, sp = classes == TARGET, classes == NONTARGET, classes == SPOOF
    bona = tb | nb
    asv_eer, tau_asv = eer(asv[tb], asv[nb])
    cm_eer, _ = eer(cm[bona], cm[sp])

    asv_rej = asv <= tau_asv
    n_tb, n_nb, n_sp = int(tb.sum()), int(nb.sum()), int(sp.sum())
    tb_rej, nb_acc, sp_acc = tb & asv_rej, nb & ~asv_rej, sp & ~asv_rej
    taus, (tb_le, tb_rej_le, nb_acc_le, sp_acc_le) = _sweep(
        cm, cm[tb], cm[tb_rej], cm[nb_acc], cm[sp_acc]
    )
    costs = _tdcf(
        p,
        (tb_rej.sum() - tb_rej_le) / n_tb,
        (nb_acc.sum() - nb_acc_le) / n_nb,
        (sp_acc.sum() - sp_acc_le) / n_sp,
        tb_le / n_tb,
    )
    accept_all = _tdcf(p, tb_rej.sum() / n_tb, nb_acc.sum() / n_nb, sp_acc.sum() / n_sp, 0.0)
    normalizer = min(accept_all, p.c_miss * p.rho_tar)
    normalized = costs / normalizer if normalizer > 0.0 else costs
    best = int(np.argmin(normalized))
    tau_cm = float(taus[best])

    cm_acc = cm > tau_cm
    rates = {
        "p_a": float(np.count_nonzero(tb & cm_acc & asv_rej)) / n_tb,
        "p_b": float(np.count_nonzero(nb & cm_acc & ~asv_rej)) / n_nb,
        "p_c": float(np.count_nonzero(sp & cm_acc & ~asv_rej)) / n_sp,
        "p_d": float(np.count_nonzero(tb & ~cm_acc)) / n_tb,
    }
    per_cm, per_asv = {}, {}
    for attack in sorted(set(attacks[sp].tolist())):
        mask = sp & (attacks == attack)
        per_cm[attack] = eer(cm[bona], cm[mask])[0]
        per_asv[attack] = eer(asv[tb], asv[mask])[0]
    return {
        "asv_eer": asv_eer,
        "cm_eer": cm_eer,
        "min_norm_tdcf": float(normalized[best]),
        "tau_cm_star": tau_cm,
        "tau_asv": tau_asv,
        "cross_task_eer": eer(asv[bona], asv[sp])[0],
        "per_attack_cm_eer": per_cm,
        "per_attack_asv_eer": per_asv,
        "tdcf_at": {
            "tau_asv": tau_asv,
            "tau_cm": tau_cm,
            "rates": rates,
            "tdcf": _tdcf(p, rates["p_a"], rates["p_b"], rates["p_c"], rates["p_d"]),
        },
    }


def mismatches(got, want, path: str = "", rel: float = 1e-12) -> list[str]:
    """Where two nested dicts of numbers differ by more than ``rel`` (relative
    to max(1, |want|)) or in their keys."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'report'}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        out = []
        for key in sorted(want):
            out += mismatches(got[key], want[key], f"{path}.{key}" if path else key, rel)
        return out
    if abs(float(got) - float(want)) > rel * max(1.0, abs(float(want))):
        return [f"{path}: {got!r} != reference {want!r}"]
    return []
