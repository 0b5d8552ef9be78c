"""Spans around the calls into each toepbrack layer, recorded from outside.

``Tracer.install`` replaces each public function of a layer with a wrapper
in every toepbrack module that binds the name, which is where the calling
modules look it up (``toepbrack.spectra.eigenvalues``,
``toepbrack.cli.build_restricted``, ...).  ``HermitianMatrix`` arithmetic is
wrapped on the class.  ``uninstall`` puts the originals back, so untraced
rounds run the program exactly as shipped.  Spans stay in memory, each with
its parent, until the run writes them out.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

#: Public functions timed per layer.
LAYER_FUNCTIONS = {
    "symbols": ("make_symbol", "fourier_coefficients", "decompose_pentadiagonal", "evaluate_symbol"),
    "matrices": ("toeplitz_finite", "circulant_periodic", "direct_sum"),
    "boundary": ("build_restricted",),
    "spectra.eigen": ("eigenvalues",),
    "spectra.certify": ("check_bracketing", "check_bracketing_penta"),
    "spectra.gap": ("gap_scan", "spectral_gap", "sampled_gap_floor"),
    "cli": ("main",),
}
#: Unit of each per-layer metric.  Times and sizes are per traced round.
UNITS = {
    "symbols.calls": "count",
    "symbols.busy_ms": "ms",
    "matrices.busy_ms": "ms",
    "matrices.dense_mb": "MB",
    "boundary.windows": "count",
    "boundary.build_nn_ms": "ms",
    "boundary.build_other_ms": "ms",
    "spectra.eigen.calls": "count",
    "spectra.eigen.busy_ms": "ms",
    "spectra.eigen.max_dim": "count",
    "spectra.eigen.dim3_sum": "count",
    "spectra.eigen.useful_ratio": "ratio",
    "spectra.certify.self_ms": "ms",
    "spectra.gap.top_size_ms": "ms",
    "spectra.gap.floor_ms": "ms",
    "spectra.gap.fit_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.format_ms": "ms",
    "cli.bytes_out": "bytes",
    "trace.overhead_pct": "%",
}
MATRIX_METHODS = ("__add__", "__sub__", "scaled", "shifted", "row_sum_norm")
MODULES = ("", ".symbols", ".matrices", ".boundary", ".spectra", ".cli")


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    """Records one span per wrapped call, with the span that caused it."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, layer, name, time.process_time())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.process_time()
                self._stack.pop()
            _annotate(span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module(self.package.__name__ + m) for m in MODULES]
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                original = next(getattr(m, name) for m in modules if hasattr(m, name))
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)
        cls = self.package.HermitianMatrix
        for name in MATRIX_METHODS:
            original = cls.__dict__[name]
            self._patched.append((cls, name, original))
            setattr(cls, name, self._wrap("matrices", name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _annotate(span: Span, args, kwargs, result) -> None:
    """Keep the sizes the per-layer metrics need, not the arguments themselves."""
    entries = getattr(result, "entries", None)
    if entries is not None and getattr(entries, "ndim", 0) == 2:
        span.attrs["dense_dim"] = int(entries.shape[0])
    if span.name == "build_restricted":
        left = args[2] if len(args) > 2 else kwargs["left"]
        right = args[3] if len(args) > 3 else kwargs["right"]
        span.attrs["nn"] = left.value == "n" and right.value == "n"
    elif span.name == "eigenvalues":
        span.attrs["dim"] = int(args[0].dim)
    elif span.name == "spectral_gap":
        span.attrs["size"] = int(args[1])
        span.attrs["reads"] = args[0].degree + 1
    elif span.name == "gap_scan":
        span.attrs["top"] = max(int(s) for s in args[1])


def _outermost(spans: list[Span], by_id: dict, layer: str) -> list[Span]:
    """Spans of ``layer`` with no ancestor in the same layer (no double counting)."""
    out = []
    for s in spans:
        if not s.layer.startswith(layer):
            continue
        p = s.parent
        while p is not None and not by_id[p].layer.startswith(layer):
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def _self_ms(span: Span, children: dict) -> float:
    return span.ms - sum(c.ms for c in children.get(span.id, ()))


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer figures per round from the spans of ``rounds`` traced rounds."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def ancestor(s: Span, pred):
        p = s.parent
        while p is not None and not pred(by_id[p]):
            p = by_id[p].parent
        return None if p is None else by_id[p]

    def busy(layer: str) -> float:
        return sum(s.ms for s in _outermost(spans, by_id, layer))

    def named(*names: str) -> list[Span]:
        return [s for s in spans if s.name in names]

    eigen = named("eigenvalues")
    computed = sum(s.attrs["dim"] for s in eigen)
    useful = 0
    for s in eigen:
        owner = ancestor(s, lambda p: p.name in ("spectral_gap", "check_bracketing", "check_bracketing_penta"))
        useful += owner.attrs["reads"] if owner is not None and owner.name == "spectral_gap" else 1
    top = []
    for s in named("spectral_gap"):
        scan = ancestor(s, lambda p: p.name == "gap_scan")
        if scan is not None and s.attrs["size"] == scan.attrs["top"]:
            top.append(s)
    library = [s for s in spans if s.layer != "cli"]
    format_ms = sum(s.ms for s in named("main"))
    for s in library:
        caller = ancestor(s, lambda p: p.layer != "cli" or p.name == "main")
        if caller is not None and caller.name == "main":
            format_ms -= s.ms
    builds = named("build_restricted")
    dense = [s for s in spans if s.layer in ("matrices", "boundary") and "dense_dim" in s.attrs]
    raw = {
        "symbols.calls": len([s for s in spans if s.layer == "symbols"]),
        "symbols.busy_ms": busy("symbols"),
        "matrices.busy_ms": busy("matrices"),
        "matrices.dense_mb": sum(16 * s.attrs["dense_dim"] ** 2 for s in dense) / 1e6,
        "boundary.windows": len(builds),
        "boundary.build_nn_ms": sum(s.ms for s in builds if s.attrs["nn"]),
        "boundary.build_other_ms": sum(s.ms for s in builds if not s.attrs["nn"]),
        "spectra.eigen.calls": len(eigen),
        "spectra.eigen.busy_ms": busy("spectra.eigen"),
        "spectra.eigen.dim3_sum": sum(s.attrs["dim"] ** 3 for s in eigen),
        "spectra.certify.self_ms": sum(_self_ms(s, children) for s in named("check_bracketing", "check_bracketing_penta")),
        "spectra.gap.top_size_ms": sum(s.ms for s in top),
        "spectra.gap.floor_ms": sum(s.ms for s in named("sampled_gap_floor")),
        "spectra.gap.fit_ms": sum(_self_ms(s, children) for s in named("gap_scan")),
        "cli.main_ms": sum(s.ms for s in named("main")),
        "cli.format_ms": format_ms,
    }
    out = {k: v / rounds for k, v in raw.items()}
    out["spectra.eigen.max_dim"] = max((s.attrs["dim"] for s in eigen), default=0)
    out["spectra.eigen.useful_ratio"] = useful / computed if computed else 0.0
    return out
