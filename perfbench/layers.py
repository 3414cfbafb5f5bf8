"""Per-layer metrics from the totals that traced passes report (no simsub import)."""

from __future__ import annotations

_MAXED = ("parallel.workers", "parallel.max_task_s")


def merge(raws) -> dict:
    """Sum the totals of several passes (maxima stay maxima)."""
    out: dict = {}
    for raw in raws:
        for key, value in raw.items():
            if key in _MAXED:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def derive(raw) -> dict:
    """Per-layer metric values (name -> number) from merged totals."""
    g = raw.get
    out = {
        "cli.self_s": g("cli.self_s", 0.0),
        "cli.stdout_bytes": g("cli.stdout_bytes", 0),
        "catalog.entry_s": g("catalog.entry_s", 0.0),
        "catalog.coeffs_per_s": _ratio(g("catalog.coeffs", 0), g("catalog.entry_s", 0)),
    }
    for fn in ("expand_euler", "convolve", "inverse"):
        key = f"dirichlet.{fn}"
        out[f"{key}.calls"] = g(f"{key}.calls", 0)
        out[f"{key}.s"] = g(f"{key}.s", 0.0)
        out[f"{key}.coeffs_per_s"] = _ratio(g(f"{key}.coeffs", 0), g(f"{key}.s", 0))
    out["dirichlet.scale_shift.s"] = g("dirichlet.scale_shift.s", 0.0)
    candidates = g("lattice.rank2.candidates", 0) + g("lattice.rank4.candidates", 0)
    out.update({
        "lattice.rank2.candidates": g("lattice.rank2.candidates", 0),
        "lattice.rank4.candidates": g("lattice.rank4.candidates", 0),
        "lattice.ideals": g("lattice.ideals", 0),
        "lattice.survival_ratio": _ratio(g("lattice.ideals", 0), candidates),
        "lattice.rank2.candidates_per_s": _ratio(g("lattice.rank2.count_candidates", 0),
                                                 g("lattice.rank2.count_s", 0)),
        "lattice.rank4.candidates_per_s": _ratio(g("lattice.rank4.count_candidates", 0),
                                                 g("lattice.rank4.count_s", 0)),
        "lattice.list_ideals.s": g("lattice.list_ideals.s", 0.0),
        "lattice.is_principal.calls": g("lattice.is_principal.calls", 0),
        "lattice.is_principal.s": g("lattice.is_principal.s", 0.0),
        "lattice.principal_ratio": _ratio(g("lattice.principal", 0),
                                          g("lattice.is_principal.calls", 0)),
        "quartic.regular_rep.calls": g("quartic.regular_rep.calls", 0),
        "quadratic.gcd.calls": g("quadratic.gcd.calls", 0),
        "quadratic.exact_div.calls": g("quadratic.exact_div.calls", 0),
        "quadratic.canonical_associate.calls": g("quadratic.canonical_associate.calls", 0),
        "cubic.rotation_scan.s": g("cubic.rotation_scan.s", 0.0),
        "cubic.submodule_count.s": g("cubic.submodule_count.s", 0.0),
        "cubic.rotations": g("cubic.rotations", 0),
        "cubic.rotations_per_s": _ratio(g("cubic.rotations", 0), g("cubic.rotation_scan.s", 0)),
        "cubic.hnf_over_ztau.calls": g("cubic.hnf_over_ztau.calls", 0),
        "cubic.submodules": g("cubic.submodules", 0),
        "cubic.dedup_ratio": _ratio(g("cubic.submodules", 0), g("cubic.hnf_over_ztau.calls", 0)),
        "parallel.workers": g("parallel.workers", 0),
        "parallel.tasks": g("parallel.tasks", 0),
        "parallel.busy_share": _ratio(g("parallel.task_s", 0), g("parallel.capacity_s", 0)),
        "parallel.max_task_s": g("parallel.max_task_s", 0.0),
    })
    return out
