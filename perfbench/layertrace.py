"""Layer tracing from outside the program.

`Tracer.install` replaces each public entry point of the mtdgame layers
with a wrapper, at the place where callers look the name up: a class
attribute for methods, the importing module's global for functions (for
example the `build_game` that `mtdgame.cli` imported), and the default
argument through which `nash` reaches `evaluate_pair`.  No file under
`src/` is touched.

Every call becomes a span: name, parent span, and four monotonic
timestamps.  `start`..`end` is the wrapped call itself; `t_in`..`t_out`
adds the wrapper's own bookkeeping, so that time can be charged to the
benchmark rather than to the caller.  Spans stay in memory until
`write_spans` at the end of the run.
"""

from __future__ import annotations

import csv
import functools
import time
from array import array

import numpy as np

_clock = time.monotonic_ns

# Layers whose self times partition the traced wall time.
LAYER_MODULES = ("env", "policies", "qlearn", "nash", "double_oracle",
                 "serialize", "config", "cli")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.stamps = array("q")        # t_in, start, end, t_out per span
        self.kept: dict[str, list] = {}  # return values of selected entries
        self._stack = [-1]

    def wrap(self, name: str, fn, keep: bool = False):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        span_name, span_parent, stamps, stack = (
            self.span_name, self.span_parent, self.stamps, self._stack)
        kept = self.kept.setdefault(name, []) if keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = _clock()
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            stamps.extend((t_in, 0, 0, 0))
            stack.append(idx)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                k = 4 * idx
                stamps[k + 1] = start
                stamps[k + 2] = end
                stamps[k + 3] = _clock()
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, keep: bool = False) -> None:
        # vars() rather than getattr(): a method must stay a plain function
        # on its class so that binding to the instance still happens.
        setattr(owner, attr, self.wrap(name, vars(owner)[attr], keep))

    def install(self) -> None:
        """Wrap every traced entry point of the imported mtdgame package."""
        from mtdgame import cli, double_oracle, env, nash, policies, qlearn

        traced_eval = self.wrap("policies.evaluate_pair", policies.evaluate_pair)
        for fn in (nash.build_game, nash.extend_game):
            fn.__defaults__ = tuple(traced_eval if d is policies.evaluate_pair else d
                                    for d in fn.__defaults__)
        for cls in vars(policies).values():
            if (isinstance(cls, type) and issubclass(cls, policies.PurePolicy)
                    and cls is not policies.PurePolicy and "act" in vars(cls)):
                self.patch(cls, "act", "policies.act")
        for owner, attr, name in (
            (env.MtdEnv, "reset", "env.reset"),
            (env.MtdEnv, "step", "env.step"),
            (env.MtdEnv, "observe", "env.observe"),
            (policies, "run_episode", "policies.run_episode"),
            (qlearn, "network_input", "qlearn.network_input"),
            (qlearn.QNetwork, "forward", "qlearn.forward"),
            (qlearn, "td_targets", "qlearn.td_targets"),
            (qlearn, "loss_and_gradients", "qlearn.loss_and_gradients"),
            (qlearn, "train_step", "qlearn.train_step"),
            (qlearn.AdamOptimizer, "apply", "qlearn.optimizer"),
            (qlearn.SgdOptimizer, "apply", "qlearn.optimizer"),
            (qlearn.ReplayBuffer, "sample", "qlearn.replay.sample"),
            (qlearn.ReplayBuffer, "push", "qlearn.replay.push"),
            (qlearn.QNetworkPolicy, "act", "qlearn.policy_act"),
            (cli, "train_best_response", "qlearn.train_best_response"),
            (double_oracle, "train_best_response", "qlearn.train_best_response"),
            (cli, "build_game", "nash.build_game"),
            (double_oracle, "build_game", "nash.build_game"),
            (double_oracle, "extend_game", "nash.extend_game"),
            (cli, "run_double_oracle", "double_oracle.run_double_oracle"),
            (cli, "load_config", "config.load_config"),
            (cli, "format_config", "config.format_config"),
        ):
            self.patch(owner, attr, name)
        for owner in (cli, double_oracle):
            self.patch(owner, "solve_msne", "nash.solve_msne", keep=True)
        for attr in ("load_mixture", "load_policy", "load_game", "save_mixture",
                     "save_policy", "save_game", "save_learning_curve",
                     "save_equilibrium", "save_do_curve"):
            self.patch(cli, attr, f"serialize.{attr}")

    def _arrays(self):
        st = np.frombuffer(self.stamps, dtype=np.int64).reshape(-1, 4)
        names = np.array(self.names, dtype=object)[np.frombuffer(self.span_name, np.int32)]
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        return names, parent, st[:, 0], st[:, 1], st[:, 2], st[:, 3]

    def layer_metrics(self, w0: int, w1: int) -> dict[str, float]:
        """Per-layer metrics of this run; w0..w1 is the traced wall_s window.

        Self time is a span's own call time minus the full (wrapper
        included) extent of its children.  `<module>.self_s` values are
        clipped to the window, so that together with `tracing.bench_s`
        (wrapper bookkeeping plus window time outside every span) they add
        up to `tracing.wall_s`; `tracing.remainder_s` is what is left.
        Counts and `total_s` values cover the whole `cli.main` call.
        """
        names, parent, t_in, start, end, t_out = self._arrays()
        n = len(names)
        child = parent >= 0
        inner = (end - start).astype(float)
        self_ns = inner - np.bincount(parent[child], weights=(t_out - t_in)[child],
                                      minlength=n)

        def overlap(a, b):
            return np.clip(np.minimum(b, w1) - np.maximum(a, w0), 0, None).astype(float)

        inner_c = overlap(start, end)
        outer_c = overlap(t_in, t_out)
        self_c = inner_c - np.bincount(parent[child], weights=outer_c[child], minlength=n)
        module = np.array([s.split(".", 1)[0] for s in names], dtype=object)
        parent_name = np.where(child, names[np.where(child, parent, 0)], "")

        def sel(name):
            return names == name

        def total_s(mask):
            return float(inner[mask].sum()) / 1e9

        def pct(values, q):
            return float(np.percentile(values, q)) if values.size else 0.0

        m: dict[str, float] = {}
        step = sel("env.step")
        m["env.step.calls"] = int(step.sum())
        m["env.step.self_us_p50"] = pct(self_ns[step], 50) / 1e3
        m["env.step.self_us_p99"] = pct(self_ns[step], 99) / 1e3
        m["env.observe.calls"] = int(sel("env.observe").sum())
        m["env.observe.total_s"] = total_s(sel("env.observe"))
        m["env.reset.calls"] = int(sel("env.reset").sum())
        m["policies.act.calls"] = int(sel("policies.act").sum())
        m["policies.act.total_s"] = total_s(sel("policies.act"))
        episode = sel("policies.run_episode")
        m["policies.run_episode.calls"] = int(episode.sum())
        m["policies.run_episode.ms_p50"] = pct(inner[episode], 50) / 1e6
        m["policies.run_episode.ms_p90"] = pct(inner[episode], 90) / 1e6
        m["policies.evaluate_pair.calls"] = int(sel("policies.evaluate_pair").sum())
        m["policies.evaluate_pair.total_s"] = total_s(sel("policies.evaluate_pair"))
        m["qlearn.network_input.total_s"] = total_s(sel("qlearn.network_input"))
        m["qlearn.forward.act_s"] = total_s(
            sel("qlearn.forward") & (parent_name == "qlearn.train_best_response"))
        for key in ("td_targets", "loss_and_gradients", "optimizer"):
            m[f"qlearn.{key}.total_s"] = total_s(sel(f"qlearn.{key}"))
        m["qlearn.replay.sample_s"] = total_s(sel("qlearn.replay.sample"))
        m["qlearn.replay.push_s"] = total_s(sel("qlearn.replay.push"))
        train_step = sel("qlearn.train_step")
        m["qlearn.train_step.calls"] = int(train_step.sum())
        m["qlearn.train_step.us_p50"] = pct(inner[train_step], 50) / 1e3
        m["qlearn.train_step.us_p99"] = pct(inner[train_step], 99) / 1e3
        m["qlearn.train_best_response.total_s"] = total_s(sel("qlearn.train_best_response"))
        m["qlearn.policy_act.calls"] = int(sel("qlearn.policy_act").sum())
        m["qlearn.policy_act.total_s"] = total_s(sel("qlearn.policy_act"))
        m["nash.build_game.total_s"] = total_s(sel("nash.build_game"))
        m["nash.extend_game.total_s"] = total_s(sel("nash.extend_game"))
        solves = self.kept.get("nash.solve_msne", [])
        m["nash.solve_msne.calls"] = int(sel("nash.solve_msne").sum())
        m["nash.solve_msne.total_s"] = total_s(sel("nash.solve_msne"))
        m["nash.solve_msne.lemke_howson_ratio"] = (
            sum(r.method == "lemke_howson" for r in solves) / len(solves) if solves else 0.0)
        # The loop's oracle closure is not wrapped, so each oracle call is a
        # training span directly under the loop; every iteration makes one
        # defender call and then one adversary call.
        calls = int((sel("qlearn.train_best_response")
                     & (parent_name == "double_oracle.run_double_oracle")).sum())
        m["double_oracle.oracle_calls"] = calls
        m["double_oracle.iterations"] = (calls + 1) // 2
        m["serialize.total_s"] = total_s(module == "serialize")
        for mod in LAYER_MODULES:
            m[f"{mod}.self_s"] = float(self_c[module == mod].sum()) / 1e9
        roots = ~child
        uncovered = (w1 - w0) - outer_c[roots].sum()
        m["tracing.wall_s"] = (w1 - w0) / 1e9
        m["tracing.bench_s"] = float((outer_c - inner_c).sum() + uncovered) / 1e9
        m["tracing.remainder_s"] = m["tracing.wall_s"] - m["tracing.bench_s"] - sum(
            m[f"{mod}.self_s"] for mod in LAYER_MODULES)
        return m

    def write_spans(self, path) -> None:
        names, parent, t_in, start, end, t_out = self._arrays()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["run_id", "span", "parent", "name",
                        "t_in_ns", "start_ns", "end_ns", "t_out_ns"])
            for i, row in enumerate(zip(parent.tolist(), names.tolist(), t_in.tolist(),
                                        start.tolist(), end.tolist(), t_out.tolist())):
                w.writerow([self.run_id, i, *row])

