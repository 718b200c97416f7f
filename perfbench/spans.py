"""Per-layer spans recorded from outside the program.

A ``Tracer`` wraps the public entry points of each turbomud module
where the caller resolves the name: module-level functions are
replaced in every ``turbomud.*`` module that binds them, methods on
their class.  Each wrapped call is one span; a layer's self time is
its spans' time minus the time of the spans nested inside them.
Wrappers only read arguments and results, so a traced run computes
exactly what an untraced run computes.

The computed counts (trellis edges, K x K inversions, frames, useful
outer iterations) are derived from argument shapes and returned
values, never from the program's own bookkeeping.
"""

import sys
import time
import weakref

import numpy as np

LAYERS = ("harness", "channel", "coding", "siso_gaussian", "siso_discrete",
          "siso_ddf", "varem", "linalg")

# (layer, defining module, attribute or Class.method)
ENTRY_POINTS = (
    ("harness", "turbomud.harness", "run_scenario"),
    ("channel", "turbomud.channel", "transmit"),
    ("coding", "turbomud.coding", "ConvTurboDecoder.encode_block"),
    ("coding", "turbomud.coding", "ConvTurboDecoder.decode_user"),
    ("siso_gaussian", "turbomud.siso_gaussian", "GaussianTurboLoop.iterate"),
    ("siso_gaussian", "turbomud.siso_gaussian", "flooding_ext_block"),
    ("siso_gaussian", "turbomud.siso_gaussian", "loo_ext_block"),
    ("siso_discrete", "turbomud.siso_discrete", "DiscreteTurboLoop.iterate"),
    ("siso_discrete", "turbomud.siso_discrete", "tanh_sic_block"),
    ("siso_ddf", "turbomud.siso_ddf", "ddf_pass_block"),
    ("siso_ddf", "turbomud.siso_ddf", "DdfPrecompute.from_channel"),
    ("varem", "turbomud.varem", "run_varem"),
    ("varem", "turbomud.varem", "mstep_gauss"),
    ("varem", "turbomud.varem", "mstep_disc"),
    ("linalg", "turbomud.linalg", "spd_inverse"),
    ("linalg", "turbomud.linalg", "spd_solve"),
)

# Counts that must repeat exactly between two runs of the same inputs.
EXACT_COUNTS = ("coding.trellis_edges", "siso_gaussian.kk_inversions",
                "linalg.calls", "harness.frames")


class _Layer:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Span and count recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.layers = {name: _Layer() for name in LAYERS}
        self.trellis_edges = 0
        self.kk_inversions = 0
        self.frames = 0
        self.iterations_compared = 0
        self.iterations_changed = 0
        self._stack = []            # child-span seconds of each open span
        self._last_error = None     # count an exception in its innermost layer
        self._last_decisions = weakref.WeakKeyDictionary()
        self._patches = []          # (owner, attribute, original)

    # -- spans ---------------------------------------------------------

    def _wrap(self, layer, fn, after):
        stats = self.layers[layer]
        stack = self._stack

        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    stats.errors += 1
                raise
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.self_s += dur - child[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(args, kwargs, out)
            return out

        span.__wrapped__ = fn
        return span

    # -- computed counts -----------------------------------------------

    def _after_decode(self, args, kwargs, out):
        decoder = args[0]
        steps = decoder.n_coded // 2
        self.trellis_edges += steps * decoder.code.n_states * 2

    def _after_ext_block(self, args, kwargs, out):
        self.kk_inversions += np.shape(args[1])[0]  # one K x K per interval

    def _after_run_scenario(self, args, kwargs, report):
        cfg = args[0]
        self.frames += sum(report.bits(s, 1, 1) // cfg.info_bits
                           for s in cfg.snr_db)

    def _compare(self, previous, current):
        self.iterations_compared += 1
        self.iterations_changed += int(not np.array_equal(previous, current))

    def _after_iterate(self, args, kwargs, frame):
        loop = args[0]
        info = frame.info_posterior
        if info and info[0] is not None:
            decisions = np.sign(np.stack(info, axis=1))
        else:
            decisions = np.sign(frame.llr_post)
        previous = self._last_decisions.get(loop)
        if previous is not None:
            self._compare(previous, decisions)
        self._last_decisions[loop] = decisions

    def _after_tanh_sic(self, args, kwargs, history):
        # the uncoded DDF-aided path: iteration 1 is the DDF pass (m0),
        # iterations 2..J the recorded sweeps
        m0 = kwargs.get("m0", args[3] if len(args) > 3 else None)
        record = kwargs.get("record", args[4] if len(args) > 4 else False)
        if not record or m0 is None:
            return
        decisions = [np.sign(m0)] + [np.sign(m) for m in history]
        for previous, current in zip(decisions, decisions[1:]):
            self._compare(previous, current)

    # -- patching ------------------------------------------------------

    def install(self):
        """Wrap every entry point; raises if one is not found."""
        after = {"run_scenario": self._after_run_scenario,
                 "ConvTurboDecoder.decode_user": self._after_decode,
                 "flooding_ext_block": self._after_ext_block,
                 "loo_ext_block": self._after_ext_block,
                 "GaussianTurboLoop.iterate": self._after_iterate,
                 "DiscreteTurboLoop.iterate": self._after_iterate,
                 "tanh_sic_block": self._after_tanh_sic}
        for layer, module_name, attr in ENTRY_POINTS:
            module = sys.modules[module_name]
            hook = after.get(attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, raw.__func__, hook))
                else:
                    new = self._wrap(layer, raw, hook)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original, hook)
            bound = 0
            for name, mod in list(sys.modules.items()):
                if name != "turbomud" and not name.startswith("turbomud."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"entry point {module_name}.{attr} not bound")
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics over ``wall_s`` seconds of traced wall time."""
        out = {}
        for name, st in self.layers.items():
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.self_s"] = (st.self_s, "s")
            out[f"{name}.share"] = (st.self_s / wall_s, "ratio")
            out[f"{name}.errors"] = (st.errors, "count")
        coding_s = self.layers["coding"].self_s
        gauss_s = self.layers["siso_gaussian"].self_s
        out["coding.trellis_edges"] = (self.trellis_edges, "count")
        out["coding.edges_per_s"] = (
            self.trellis_edges / coding_s if coding_s else 0.0, "1/s")
        out["siso_gaussian.kk_inversions"] = (self.kk_inversions, "count")
        out["siso_gaussian.inversions_per_s"] = (
            self.kk_inversions / gauss_s if gauss_s else 0.0, "1/s")
        out["harness.frames"] = (self.frames, "count")
        out["harness.useful_iter_frac"] = (
            self.iterations_changed / self.iterations_compared
            if self.iterations_compared else 0.0, "ratio")
        return out
