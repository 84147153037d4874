"""Span tracing of the diracbeams layers, from outside the package.

``install`` replaces each traced public function, in every ``diracbeams``
module namespace that holds it (the defining module included, so calls
inside a layer are seen too), by a wrapper that records one span per call:
name, start, end, parent span and request id.  Spans are kept in flat
in-memory arrays and written out once, at the end of a run.  Spans are
properly nested because the benchmark runs on one thread.
"""

from __future__ import annotations

import fnmatch
import functools
import sys
import types
from array import array
from time import perf_counter

import numpy as np

# Layer name (== module name under diracbeams) -> traced public names.
LAYERS = {
    "bessel": ("bessel_j*",),
    "dirac": ("plane_wave_spinor", "current", "density", "energy"),
    "beams": ("field_closed_form", "field_quadrature", "density_profile",
              "profile_from_field"),
    "foldy": ("fw_unitary", "berry_connection*", "berry_curvature*",
              "soi_operator*", "sam_operator", "beam_expectations",
              "berry_phase"),
    "linear_density": ("cross_section_averages", "linear_expectations"),
    "validation": ("run_checks",),
    "cli": ("main",),
}
# Per-momentum FW kernels: the calls that batching would remove.
FOLDY_KERNELS = ("fw_unitary", "berry_connection*", "berry_curvature*",
                 "soi_operator*", "sam_operator")

# Work done by one call, read from its result.  Placed on the innermost
# function of each path (bessel_j and bessel_j_array go through
# bessel_j_orders; profile_from_field goes through field_closed_form), so
# summing over all spans counts each unit of work once.
WORK = {
    "bessel.bessel_j_orders": lambda out: out.size,
    "beams.field_closed_form": lambda out: out.size // 4,
    "beams.field_quadrature": lambda out: out.size // 4,
    "beams.density_profile": lambda out: out.rho.size,
    "validation.run_checks": lambda out: len(out[0]),
}
# Calls whose arguments and result are kept for the diagnostics.
CAPTURE = ("bessel.bessel_j_orders", "linear_density.linear_expectations")


class SpanRecorder:
    """In-memory span store; ``request_id`` tags the spans being opened."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.captured = []
        self.request_id = -1
        self._stack = []

    def add_name(self, name, layer):
        if name not in self.names:
            self.names.append(name)
            self.layer_of.append(layer)
        return self.names.index(name)

    def wrap(self, fn, name, layer):
        nid = self.add_name(name, layer)
        work = WORK.get(name)
        capture = name in CAPTURE
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.end)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0.0)
            self.work.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if work is not None:
                self.work[idx] = work(result)
            if capture:
                self.captured.append((name, fn, args, kwargs, result))
            return result

        return traced

    def arrays(self):
        """Span columns as numpy arrays."""
        return {
            "name_id": np.array(self.name_id, dtype=np.intc),
            "parent": np.array(self.parent, dtype=np.intc),
            "request": np.array(self.request, dtype=np.intc),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "work": np.array(self.work, dtype=float),
        }

    def save(self, path):
        """Write every span, with its name table, to a compressed .npz."""
        np.savez_compressed(path, names=np.array(self.names),
                            layers=np.array(self.layer_of), **self.arrays())


def install(recorder):
    """Wrap the traced functions; returns the patches for ``uninstall``."""
    wrappers = {}
    for layer, patterns in LAYERS.items():
        mod = sys.modules[f"diracbeams.{layer}"]
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and any(fnmatch.fnmatchcase(attr, p) for p in patterns)):
                wrappers[id(obj)] = (obj, recorder.wrap(obj, f"{layer}.{attr}",
                                                        layer))
    patches = []
    for modname, mod in sorted(sys.modules.items()):
        if modname != "diracbeams" and not modname.startswith("diracbeams."):
            continue
        for attr, obj in list(vars(mod).items()):
            orig, traced = wrappers.get(id(obj), (None, None))
            if orig is obj:
                setattr(mod, attr, traced)
                patches.append((mod, attr, obj))
    return patches


def uninstall(patches):
    for mod, attr, obj in patches:
        setattr(mod, attr, obj)


def self_times(start, end, parent):
    """Span duration minus the time its direct child spans cover.

    Spans from one thread nest properly, so the children of a span do not
    overlap and the time they cover is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def layer_totals(recorder):
    """Per-layer raw totals over every recorded span.

    ``entries`` counts spans entered from outside the layer, ``spans``
    every span, ``work`` sums the WORK counters; ``kernel_calls`` and
    ``kernel_s`` (inclusive time of outermost kernel spans) are for the FW
    kernels only.
    """
    cols = recorder.arrays()
    nid, parent = cols["name_id"], cols["parent"]
    layer_ids = {layer: k for k, layer in enumerate(LAYERS)}
    name_layer = np.array([layer_ids[x] for x in recorder.layer_of] or [0],
                          dtype=int)
    is_kernel = np.array([
        layer == "foldy" and any(fnmatch.fnmatchcase(n.split(".", 1)[1], p)
                                 for p in FOLDY_KERNELS)
        for n, layer in zip(recorder.names, recorder.layer_of)] or [False])
    layer = name_layer[nid]
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
    kernel = is_kernel[nid]
    parent_kernel = (parent >= 0) & kernel[np.maximum(parent, 0)]
    selft = self_times(cols["start"], cols["end"], parent)
    dur = cols["end"] - cols["start"]
    totals = {}
    for name, k in layer_ids.items():
        here = layer == k
        totals[name] = {
            "spans": int(here.sum()),
            "entries": int((here & (parent_layer != k)).sum()),
            "self_s": float(selft[here].sum()),
            "work": float(cols["work"][here].sum()),
        }
    totals["foldy"]["kernel_calls"] = int(kernel.sum())
    totals["foldy"]["kernel_s"] = float(dur[kernel & ~parent_kernel].sum())
    return totals
