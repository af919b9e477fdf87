"""Spans around calls into the qbaxter modules, and the per-layer metrics made from them.

The wrappers are installed from the benchmark's files; nothing under `src/`
changes. A wrapper replaces every module attribute that resolves to the wrapped
function, so a caller that imported the name directly (`chain.l_matrix`,
`verify.kw_diagonal`) records spans too. A function the package no longer has
is reported in `Recorder.absent` and its metrics read 0, so the benchmark
survives refactors that rename or fold functions.

Spans stay in memory as (name, start, end, parent, repeat, nbytes) tuples until
the process writes them. `parent` is the index of the enclosing span or -1.
`repeat` marks a Q call whose function and (params, z, cutoff) equal an
earlier call recorded by the same Recorder. `nbytes` is the size of an ndarray result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

PACKAGE = "qbaxter"

# span name -> the functions it covers, as "module:attribute".
SPANS = {
    "tensor_core.embed": ("tensor_core:embed", "tensor_core:embed_site"),
    "tensor_core.partial_trace": ("tensor_core:partial_trace",),
    "qoscillator.boundary_diag": ("qoscillator:kw_diagonal", "qoscillator:ktw_diagonal"),
    "lattice_ops.l_matrix": ("lattice_ops:l_matrix",),
    "lattice_ops.other": tuple(
        "lattice_ops:" + f for f in (
            "r_matrix", "r_tilde", "l_inverse", "l_transpose2", "l_transpose2_inverse",
            "l_tilde", "kv_matrix", "ktv_matrix", "kw_matrix", "ktw_matrix", "iota", "tau",
            "tau_section", "iota_retraction")),
    "chain.half_products": ("chain:_half_products",),
    "chain.closed_monodromy_w": ("chain:closed_monodromy_w",),
    "chain.monodromy": ("chain:monodromy_v", "chain:monodromy_w", "chain:closed_monodromy_v"),
    "chain.level_sum": ("chain:transfer_w",),
    "chain.closed_level_sum": ("chain:closed_transfer_w",),
    "chain.q_operator": ("chain:q_operator",),
    "chain.closed_q": ("chain:closed_q",),
    "chain.transfer_v": ("chain:transfer_v",),
    "chain.closed_transfer_v": ("chain:closed_transfer_v",),
    "bethe.joint_spectrum": ("bethe:joint_spectrum",),
    "bethe.factorize": ("bethe:factorize_q_eigenvalue", "bethe:factorize_closed_q_eigenvalue"),
    "bethe.aba": ("bethe:aba_eigenvalue", "bethe:aba_state", "bethe:aba_bethe_residual"),
    # "verify." is completed with the suite name passed to run_suite
    "verify.": ("verify:run_suite",),
    "verify.spectrum": ("verify:spectrum_suite",),
    "cli.config": ("cli:RunConfig.from_dict",),
    "cli.report": ("cli:build_report", "cli:export_report"),
}

# spans whose calls are checked for repeated arguments
KEYED = ("chain.q_operator", "chain.closed_q")

SUITES = ("ybe", "reflection", "fusion", "row-fusion", "split-trace", "tq", "commutators",
          "crossing", "polynomiality", "n2-closed-forms", "closed-chain", "spectrum", "bethe")

LAYERS = ("tensor_core", "qoscillator", "lattice_ops", "chain", "bethe", "verify", "cli")

# (metric, unit, better); values are per unit of work unless they are ratios
PER_LAYER = (
    [("tensor_core.embed.calls", "count", "lower"),
     ("tensor_core.embed.self_s", "s", "lower"),
     ("tensor_core.embed.out_mb", "MB", "lower"),
     ("tensor_core.partial_trace.self_s", "s", "lower"),
     ("qoscillator.boundary_diag.calls", "count", "lower"),
     ("qoscillator.boundary_diag.self_s", "s", "lower"),
     ("lattice_ops.l_matrix.calls", "count", "lower"),
     ("lattice_ops.l_matrix.self_s", "s", "lower"),
     ("lattice_ops.other.self_s", "s", "lower"),
     ("chain.half_products.calls", "count", "lower"),
     ("chain.half_products.self_s", "s", "lower"),
     ("chain.closed_monodromy_w.self_s", "s", "lower"),
     ("chain.monodromy.self_s", "s", "lower"),
     ("chain.level_sum.self_s", "s", "lower"),
     ("chain.closed_level_sum.self_s", "s", "lower"),
     ("chain.q_operator.calls", "count", "lower"),
     ("chain.q_operator.repeat_frac", "ratio", "lower"),
     ("chain.closed_q.calls", "count", "lower"),
     ("chain.closed_q.repeat_frac", "ratio", "lower"),
     ("chain.transfer_v.calls", "count", "lower"),
     ("chain.transfer_v.self_s", "s", "lower"),
     ("bethe.joint_spectrum.self_s", "s", "lower"),
     ("bethe.factorize.self_s", "s", "lower"),
     ("bethe.aba.self_s", "s", "lower")]
    + [(f"verify.{s}.s", "s", "lower") for s in SUITES]
    + [("cli.config_s", "s", "lower"),
       ("cli.report_s", "s", "lower")]
    + [(f"share.{layer}", "ratio", "lower") for layer in LAYERS + ("unattributed",)]
    + [("trace.overhead_frac", "ratio", "lower")]
)


def peak_rss_kib():
    """Peak resident set of this process since its exec, in KiB (VmHWM).

    Unlike ru_maxrss, VmHWM does not carry over the parent's resident set from
    before the exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def import_package():
    """Import qbaxter and every submodule; returns {short name: module}, the package included."""
    pkg = importlib.import_module(PACKAGE)
    mods = {PACKAGE: pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return mods


def _resolve(mods, target):
    """(owner, attribute, function) for "module:Attr.path", or None when absent."""
    mod_name, path = target.split(":")
    owner = mods.get(mod_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
    if owner is None:
        return None
    raw = inspect.getattr_static(owner, attr, None)
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    return (owner, attr, fn) if callable(fn) else None


class Recorder:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self, names=None):
        self.names = tuple(SPANS) if names is None else tuple(names)
        self.spans = []
        self.absent = []
        self._stack = []
        self._seen = set()
        self._patches = []

    def install(self, mods):
        self.absent = []
        for name in self.names:
            for target in SPANS[name]:
                found = _resolve(mods, target)
                if found is None:
                    self.absent.append(target)
                    continue
                owner, attr, fn = found
                wrapper = self._wrap(fn, name)
                if isinstance(inspect.getattr_static(owner, attr), classmethod):
                    self._patch(owner, attr, classmethod(wrapper))
                    continue
                # every module attribute bound to the same function object
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name):
        spans, stack, seen = self.spans, self._stack, self._seen
        sig = inspect.signature(fn) if name in KEYED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name + str(args[0] if args else kwargs["name"]) if name.endswith(".") else name
            repeat = False
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = (name, *((k, complex(v) if k == "z" else v)
                               for k, v in bound.arguments.items()))
                repeat = key in seen
                seen.add(key)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            nbytes = 0
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                nbytes = getattr(out, "nbytes", 0)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (label, start, end, stack[-1] if stack else -1, repeat, nbytes)

        return wrapper


def totals(spans):
    """Per span name: calls, self time, outermost inclusive time, repeats, result bytes."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, repeat, nbytes) in enumerate(spans):
        t = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                  "repeats": 0, "bytes": 0})
        t["calls"] += 1
        t["self_s"] += end - start - child[i]
        if parent < 0 or spans[parent][0] != name:
            t["incl_s"] += end - start
        t["repeats"] += int(repeat)
        t["bytes"] += nbytes
    return out


def merge(into, more):
    """Add the totals of one process to those of others."""
    for name, t in more.items():
        acc = into.setdefault(name, dict.fromkeys(t, 0))
        for k, v in t.items():
            acc[k] += v
    return into


def layer_metrics(tot, units, wall_s):
    """Every PER_LAYER metric but trace.overhead_frac, from merged totals.

    `units` is the number of traced units of work the totals cover and `wall_s`
    the median traced unit time; a layer's share is its self time over it.
    """
    def get(name, field):
        return tot.get(name, {}).get(field, 0)

    def per_unit(name, field):
        return get(name, field) / units

    values = {}
    for metric, _, _ in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field in ("calls", "self_s"):
            values[metric] = per_unit(span, field)
        elif field == "repeat_frac":
            calls = get(span, "calls")
            values[metric] = get(span, "repeats") / calls if calls else 0.0
    values["tensor_core.embed.out_mb"] = per_unit("tensor_core.embed", "bytes") / 2 ** 20
    for s in SUITES:
        values[f"verify.{s}.s"] = per_unit(f"verify.{s}", "incl_s")
    values["cli.config_s"] = per_unit("cli.config", "incl_s")
    values["cli.report_s"] = per_unit("cli.report", "incl_s")
    attributed = 0.0
    for layer in LAYERS:
        self_s = sum(t["self_s"] for name, t in tot.items() if name.startswith(layer + "."))
        values[f"share.{layer}"] = self_s / units / wall_s
        attributed += values[f"share.{layer}"]
    values["share.unattributed"] = 1.0 - attributed
    return values
