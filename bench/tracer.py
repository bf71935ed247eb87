"""Span tracing around the calls into each securecast module.

Nothing here edits the program: the tracer replaces module and class
attributes with timing wrappers at the places where the program looks them
up.  ``from .quorum import w3t`` gives ``protocols``, ``adversary`` and
``tracecheck`` bindings of their own, so each binding is patched, not only
the defining module's.

Every span records its name, start, end, parent span and request id.  The
request id is the message subject when the call carries one, else the
parent's; ``simnet.run_world`` and ``cli.simulate`` spans take the world's
seed, which is ``(benchmark seed << 32) + world index``.  Runs
make millions of spans, so they are aggregated by name as they close (calls,
total time, self time) and only the first ``RAW_SPAN_CAP`` are kept raw;
those are written out by :meth:`Tracer.dump` when the run ends.  Self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time

from securecast import (adversary, analysis, cli, core, protocols, quorum,
                        simnet, tracecheck)
from securecast.protocols import DELIVER, Deliver

RAW_SPAN_CAP = 200_000


def _arg(i):
    return lambda args: args[i]


class Tracer:
    def __init__(self):
        self._stack: list[list] = []    # [span id, child seconds, request id]
        self._next_id = 1
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.raw: list[tuple] = []      # (id, parent, name, start, end, rid)
        self.root_s = 0.0
        self.queue_hwm = 0
        self.deliver_useful = 0
        self.records = 0
        self.worlds: list = []          # finished worlds, read by collect()
        self.world_stats = {"trace_lines": 0, "retransmits": 0,
                            "state_entries": 0}

    def wrap(self, name, fn, rid=None, before=None, after=None):
        """Return fn wrapped in a span.  ``name`` may be a function of the
        call's arguments; ``rid`` extracts a request id from them."""
        stack = self._stack
        agg = self.agg
        raw = self.raw
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            req = rid(args) if rid is not None else (
                parent[2] if parent is not None else None)
            frame = [span_id, 0.0, req]
            if before is not None:
                before(args)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                label = name(args) if callable(name) else name
                entry = agg.get(label)
                if entry is None:
                    entry = agg[label] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                else:
                    tracer.root_s += dur
                if len(raw) < RAW_SPAN_CAP:
                    raw.append((span_id, parent[0] if parent else 0, label,
                                start, end, req))
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- hooks ---------------------------------------------------------------

    def _note_queue(self, args):
        n = len(args[0].queue)
        if n > self.queue_hwm:
            self.queue_hwm = n

    def _note_deliver(self, args, result):
        if args[2].role == DELIVER and any(type(a) is Deliver for a in result):
            self.deliver_useful += 1

    def _note_records(self, args, result):
        self.records += len(result)

    def _keep_world(self, args, result):
        self.worlds.append(args[0])

    def collect(self):
        """Fold the worlds finished since the last call into the counters.
        Called between timed units, so the scan is not charged to a span."""
        stats = self.world_stats
        for world in self.worlds:
            entries = sum(len(e.recorded) + len(e.pending) + len(e.probes)
                          + len(e.delivered_record) + len(e.stability)
                          for e in world.engines if e is not None)
            stats["state_entries"] = max(stats["state_entries"], entries)
            if world.trace is not None:
                stats["trace_lines"] += len(world.trace)
                stats["retransmits"] += sum(
                    1 for line in world.trace
                    if line.split(" ", 2)[1] == "drop")
        self.worlds.clear()

    # -- installation ----------------------------------------------------------

    def install(self):
        """Patch every lookup site.  Returns nothing; the process is a
        throwaway benchmark child, so nothing is ever unpatched."""
        def patch(owners, attr, name, **kw):
            original = getattr(owners[0], attr)
            wrapped = self.wrap(name, original, **kw)
            for owner in owners:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the "
                                       f"same object as in {owners[0].__name__}")
                setattr(owner, attr, wrapped)

        # simnet
        patch([simnet, cli], "build_world", "simnet.world_build")
        patch([simnet], "run_world", "simnet.run_world", rid=lambda a: a[0].seed)
        patch([simnet.SimWorld], "run_to_quiescence",
              "simnet.run_to_quiescence", after=self._keep_world)
        patch([simnet.SimWorld], "step", "simnet.step",
              before=self._note_queue)
        patch([simnet.SimWorld], "stability_oracle_tick",
              "simnet.stability_oracle_tick", rid=lambda a: a[1][2])
        patch([simnet.SimWorld], "write_trace", "simnet.write_trace")
        # protocols
        patch([protocols.ProcessEngine], "handle",
              lambda a: "protocols.handle." + a[2].role,
              rid=lambda a: a[2].subject, after=self._note_deliver)
        patch([protocols.ProcessEngine], "on_timer", "protocols.on_timer",
              rid=lambda a: a[1][1] if len(a[1]) > 1 else None)
        patch([protocols.ProcessEngine], "wan_multicast",
              "protocols.wan_multicast")
        # adversary
        patch([adversary.Adversary], "act", "adversary.act")
        # core
        patch([core.KeyChain], "sign", "core.sign")
        patch([core.KeyChain], "verify", "core.verify")
        patch([core, protocols, adversary], "valid_signers",
              "core.valid_signers", rid=_arg(2))
        patch([core, protocols], "ack_valid", "core.ack_valid",
              rid=lambda a: a[0].subject)
        patch([simnet, protocols, adversary, core], "message_digest",
              "core.message_digest", rid=lambda a: a[0].id)
        # quorum
        patch([quorum, protocols, adversary, tracecheck], "w3t",
              "quorum.w3t", rid=_arg(0))
        patch([quorum, protocols, adversary], "w_active", "quorum.w_active",
              rid=_arg(0))
        patch([quorum, protocols], "sample_peers", "quorum.sample_peers")
        patch([quorum, protocols], "sample_witness_subset",
              "quorum.sample_witness_subset")
        # analysis
        patch([analysis, cli], "monte_carlo_conflict_rate",
              "analysis.monte_carlo_conflict_rate")
        patch([analysis, cli], "overall_conflict_bound",
              "analysis.overall_conflict_bound")
        # tracecheck
        patch([tracecheck], "parse_trace", "tracecheck.parse_trace",
              after=self._note_records)
        patch([tracecheck], "check_trace", "tracecheck.check_trace")
        # cli
        patch([cli], "cmd_simulate", "cli.simulate", rid=lambda a: a[0].seed)
        patch([cli], "cmd_trace_check", "cli.trace_check")

    # -- results ---------------------------------------------------------------

    def dump(self, path: str):
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\trequest\n")
            for span_id, parent, name, start, end, req in self.raw:
                fh.write(f"{span_id}\t{parent}\t{name}\t{start:.9f}\t"
                         f"{end:.9f}\t{'-' if req is None else req}\n")
