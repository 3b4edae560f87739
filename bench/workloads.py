"""The four workloads: seeded inputs, set-up, warm-up and one round of work.

A workload draws its inputs as plain data from ``random.Random`` seeded by
the workload name and the run's seed, and computes the expected answers
with ``oracles`` before any structcode code runs.  ``setup`` turns the
inputs into program objects and files, timing only the program's work on
``clock``; ``round`` performs the same operations every time, each through
``meter.op``, which times it and checks its output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import time

import oracles


def _rng(workload, seed, *tags):
    return random.Random(":".join(map(str, (workload, seed) + tags)))


def random_digraph(rng, n, m):
    """A digraph on 0..n-1 with exactly m edges and no loops."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return sorted(rng.sample(pairs, m))


def relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, sorted((perm[u], perm[v]) for u, v in edges)


def edge_count(n, density=0.3):
    return round(density * n * (n - 1))


class Workload:
    modules = ()

    def layer_extras(self, meter):
        """Per-layer metrics only this workload can give, after an
        untraced timed phase measured by ``meter``."""
        return {}

    # subclasses define: __init__(seed), setup(mods, clock, workdir),
    # warm_up() -> all outputs correct, round(meter)


# ---------------------------------------------------------------------------
# games


class Games(Workload):
    """`bnf equiv` questions through the library: bf_equiv, and
    distinguishing_move after a negative verdict."""

    modules = ("structcode.core", "structcode.backforth")
    EDGES = {5: 7, 6: 10}
    # (vertices, gamma, tuple length) -> (relabelled copies, copies with one
    # edge reversed); the reversed ones are redrawn until they are not
    # isomorphic, so every round has the same verdicts.  Confirmations at
    # level 2 without a tuple cost ~40 ms at 5 vertices and ~160 ms at 6;
    # the counts keep the median and the 90th percentile where many
    # latencies lie close together, whatever the seed.
    CELLS = {(5, 1, 0): (16, 16), (5, 1, 1): (20, 20), (5, 2, 0): (4, 4),
             (5, 2, 1): (32, 24), (6, 1, 0): (12, 12), (6, 1, 1): (8, 8),
             (6, 2, 0): (8, 24), (6, 2, 1): (24, 16)}
    ORDER_SIZES = (4, 5, 6)             # against the same size and one more
    WARM_UP = (("digraph", 5, 1, 1, True), ("order", 4, 1, 1))

    def __init__(self, seed):
        rng = _rng("games", seed)
        self.cases = []                 # (cell, a, b, gamma, expected)
        for (n, gamma, tl), counts in self.CELLS.items():
            for equivalent, count in zip((True, False), counts):
                for _ in range(count):
                    a, b = self._pair(rng, n, tl, equivalent)
                    expected = oracles.game_verdict(range(n), a[0], a[1],
                                                    range(n), b[0], b[1], gamma)
                    assert expected == equivalent
                    self.cases.append((("digraph", n, gamma, tl, equivalent),
                                       a, b, gamma, expected))
        for size, gamma, other in itertools.product(
                self.ORDER_SIZES, (1, 2), (0, 1)):
            m, n = (size, size + other) if rng.random() < 0.5 else \
                (size + other, size)
            self.cases.append((("order", size, gamma, other), m, n, gamma,
                               oracles.order_verdict(m, n, gamma)))
        rng.shuffle(self.cases)

    def _pair(self, rng, n, tl, equivalent):
        """((edges, tuple), (edges, tuple)): a relabelled copy, or a copy
        with one edge reversed that the oracle calls non-equivalent."""
        while True:
            ea = random_digraph(rng, n, self.EDGES[n])
            eb = ea
            if not equivalent:
                one_way = [e for e in ea if e[::-1] not in ea]
                if not one_way:
                    continue
                u, v = rng.choice(one_way)
                eb = sorted(set(ea) - {(u, v)} | {(v, u)})
            perm, eb = relabel(rng, n, eb)
            ta = tuple(rng.sample(range(n), tl))
            tb = tuple(perm[x] for x in ta)
            if equivalent or not oracles.iso_fixing(range(n), ea, ta,
                                                    range(n), eb, tb):
                return (ea, ta), (eb, tb)

    def setup(self, mods, clock, workdir):
        core = mods["structcode.core"]
        self.bf = mods["structcode.backforth"]
        self.questions = []
        with clock:
            for cell, a, b, gamma, expected in self.cases:
                if cell[0] == "order":
                    sa, ta = core.FinLinOrder(range(a)), ()
                    sb, tb = core.FinLinOrder(range(b)), ()
                else:
                    sa, ta = core.Digraph(range(cell[1]), a[0]), a[1]
                    sb, tb = core.Digraph(range(cell[1]), b[0]), b[1]
                self.questions.append((sa, ta, sb, tb, gamma, expected))

    def _ask(self, q):
        a, ta, b, tb, gamma, _ = q
        verdict = self.bf.bf_equiv(a, ta, b, tb, gamma)
        move = None if verdict else \
            self.bf.distinguishing_move(a, ta, b, tb, gamma)
        return verdict, move

    @staticmethod
    def _check(q, out):
        verdict, move = out
        expected = q[5]
        return verdict == expected and (expected or move is not None)

    def warm_up(self):
        """One question of each kind, from cells whose cost hardly depends
        on the seed."""
        ok = True
        for cell in self.WARM_UP:
            q = next(q for c, q in zip(self.cases, self.questions)
                     if c[0] == cell)
            ok = self._check(q, self._ask(q)) and ok
        return ok

    def round(self, meter):
        for q in self.questions:
            meter.op(lambda: self._ask(q), lambda out: self._check(q, out))


# ---------------------------------------------------------------------------
# formulas


class Formulas(Workload):
    """Evaluation of phi_tuple and phi_pair formulas built during set-up,
    one fresh Evaluator per operation."""

    modules = ("structcode.core", "structcode.backforth")
    # phi_tuple cells: (vertices, edges, gamma, formulas, confirmations,
    # refutations), the evaluations dealt round the cell's formulas.
    # Refutations take well under 1 ms; confirmations ~1 ms at 3 vertices,
    # ~5 ms at (4, 1), ~13 ms at (4, 2), ~50 ms at (5, 1) and ~130 ms at
    # (5, 2).  With the phi_pair cells below, 30 of the 80 evaluations are
    # refutations or take under 6 ms, 20 take 12-15 ms, 14 take 25-50 ms and
    # 16 take ~130 ms: the median falls mid-way through the 12-15 ms group
    # and the 90th percentile mid-way through the slowest group.
    # Every confirmation in the two slowest cells has a formula of its own,
    # so the percentiles average over many digraphs.
    TUPLE_CELLS = ((3, 2, 1, 2, 2, 2), (3, 2, 2, 2, 2, 2),
                   (4, 4, 1, 2, 2, 2), (4, 4, 2, 10, 10, 5),
                   (5, 6, 1, 10, 10, 2), (5, 6, 2, 16, 16, 6))
    # phi_pair at level 1 on 3-vertex digraphs: (length, confirmations,
    # refutations); level 2, or 4 vertices, costs seconds per confirmation
    PAIR_SIZE, PAIR_GAMMA = 3, 1
    PAIR_CELLS = ((1, 10, 3), (2, 4, 2))
    WARM_UP = (("tuple", 3, 1), ("pair", 1))

    def __init__(self, seed):
        rng = _rng("formulas", seed)
        self.tuple_specs = []     # (n, edges, x, gamma, [(edges', x', expected)])
        for n, m, gamma, count, conf, ref in self.TUPLE_CELLS:
            specs = []
            for _ in range(count):
                specs.append((n, random_digraph(rng, n, m), rng.randrange(n),
                              gamma, []))
            for i in range(conf):
                _, ea, x, _, targets = specs[i % count]
                perm, eb = relabel(rng, n, ea)
                assert oracles.iso_fixing(range(n), ea, (x,),
                                          range(n), eb, (perm[x],))
                targets.append((eb, perm[x], True))
            for i in range(ref):
                _, ea, x, _, targets = specs[i % count]
                while True:
                    eb, y = random_digraph(rng, n, m), rng.randrange(n)
                    if not oracles.iso_fixing(range(n), ea, (x,),
                                              range(n), eb, (y,)):
                        break
                targets.append((eb, y, False))
            self.tuple_specs += specs
        self.pair_specs = []      # (length, [(edges, xs, ys, expected)])
        n = self.PAIR_SIZE
        for length, conf, ref in self.PAIR_CELLS:
            want = {True: conf, False: ref}
            targets = []
            while any(want.values()):
                e = random_digraph(rng, n, rng.randrange(1, 4))
                xs = tuple(rng.randrange(n) for _ in range(length))
                ys = tuple(rng.randrange(n) for _ in range(length))
                verdict = oracles.automorphism_maps(range(n), e, xs, ys)
                if want[verdict]:
                    want[verdict] -= 1
                    targets.append((e, xs, ys, verdict))
            self.pair_specs.append((length, targets))

    def setup(self, mods, clock, workdir):
        core = mods["structcode.core"]
        bf = mods["structcode.backforth"]
        self.core = core
        self.evaluations = []     # (formula, structure, env, expected, cell)
        self.formulas = []
        with clock:
            for n, ea, x, gamma, targets in self.tuple_specs:
                phi = bf.phi_tuple(core.Digraph(range(n), ea), (x,), gamma,
                                   bound=n)
                self.formulas.append(phi)
                for eb, y, expected in targets:
                    self.evaluations.append((phi, core.Digraph(range(n), eb),
                                             {"x1": y}, expected,
                                             ("tuple", n, gamma)))
            for length, targets in self.pair_specs:
                phi = bf.phi_pair({"E": 2}, length, self.PAIR_GAMMA,
                                  self.PAIR_SIZE)
                self.formulas.append(phi)
                for e, xs, ys, expected in targets:
                    env = {f"x{i + 1}": v for i, v in enumerate(xs)}
                    env.update({f"y{i + 1}": v for i, v in enumerate(ys)})
                    self.evaluations.append(
                        (phi, core.Digraph(range(self.PAIR_SIZE), e), env,
                         expected, ("pair", length)))

    def dag_nodes(self):
        """Distinct formula node objects over all formulas of the set-up."""
        seen = set()
        stack = list(self.formulas)
        while stack:
            phi = stack.pop()
            if id(phi) in seen:
                continue
            seen.add(id(phi))
            stack.extend(getattr(phi, "parts", ()))
            if hasattr(phi, "body"):
                stack.append(phi.body)
        return len(seen)

    def layer_extras(self, meter):
        return {"backforth.formula_dag_nodes": self.dag_nodes()}

    def _eval(self, e):
        phi, s, env, _, _ = e
        return self.core.Evaluator(s).eval(phi, env)

    def warm_up(self):
        """A confirmation of each kind, from the cheapest cells."""
        firsts = [next(e for e in self.evaluations if e[4] == cell and e[3])
                  for cell in self.WARM_UP]
        return all(self._eval(e) == e[3] for e in firsts)

    def round(self, meter):
        for e in self.evaluations:
            meter.op(lambda: self._eval(e), lambda out: out == e[3])


# ---------------------------------------------------------------------------
# decode


def run_cli(cli, argv):
    """One in-process `structcode` run: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Decode(Workload):
    """In-process CLI runs that read a whole coded structure at once:
    `marker decode`, `interp marker --graph` and `interp int --n`."""

    modules = ("structcode.core", "structcode.formats", "structcode.marker",
               "structcode.cli")
    # Operations take 60-350 ms.  Four 12-vertex decodes are the slowest
    # quarter of the 17, so the 90th percentile falls among them.
    DECODE_SIZES = (8, 9, 10, 11, 12, 12, 12, 12)
    INTERP_SIZES = (3, 3, 4, 4, 5, 5)
    INT_WINDOWS = (1, 2, 3)

    def __init__(self, seed):
        rng = _rng("decode", seed)
        self.decode_graphs = [(n, random_digraph(rng, n, edge_count(n)))
                              for n in self.DECODE_SIZES]
        self.interp_graphs = [(n, random_digraph(rng, n, edge_count(n)))
                              for n in self.INTERP_SIZES]
        self.order = list(range(len(self.decode_graphs) +
                                len(self.interp_graphs) +
                                len(self.INT_WINDOWS)))
        rng.shuffle(self.order)

    def setup(self, mods, clock, workdir):
        core, formats = mods["structcode.core"], mods["structcode.formats"]
        marker = mods["structcode.marker"]
        self.cli = mods["structcode.cli"]
        jobs = []
        with clock:
            for i, (n, e) in enumerate(self.decode_graphs):
                code = marker.marker_encode(core.Digraph(range(n), e))
                h = code.graph
                path = os.path.join(workdir, f"code{i}.graph")
                edges = sorted(tuple(sorted(p)) for p in h.undirected_edges())
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(formats.struct_to_text(h.universe, edges))
                jobs.append(("decode", ["marker", "decode", path],
                             (code.provenance, range(n), e)))
            for i, (n, e) in enumerate(self.interp_graphs):
                path = os.path.join(workdir, f"graph{i}.graph")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(formats.struct_to_text(range(n), e))
                jobs.append(("interp", ["interp", "marker", "--graph", path], n))
            for w in self.INT_WINDOWS:
                jobs.append(("interp", ["interp", "int", "--n", str(w)],
                             2 * w + 1))
        self.jobs = [jobs[i] for i in self.order]
        self.smallest = jobs     # unshuffled: each kind starts with its smallest

    def _run(self, job):
        return run_cli(self.cli, job[1])

    @staticmethod
    def _check(job, out):
        rc, text = out
        payload = json.loads(text)
        if job[0] == "decode":
            provenance, v, e = job[2]
            return oracles.decode_payload_ok(rc, payload, provenance, v, e)
        return oracles.interp_payload_ok(rc, payload, job[2])

    def warm_up(self):
        firsts = [next(j for j in self.smallest if j[1][1] == kind)
                  for kind in ("decode", "marker", "int")]
        return all(self._check(j, self._run(j)) for j in firsts)

    def round(self, meter):
        for job in self.jobs:
            meter.op(lambda: self._run(job), lambda out: self._check(job, out))


# ---------------------------------------------------------------------------
# stream


class Stream(Workload):
    """MarkerStreamDecoder.feed on whole codes: vertex facts first, then the
    edge facts in seeded random order, each edge fact one operation."""

    modules = ("structcode.core", "structcode.marker")
    # The cost of a stream depends on its random fact order (an 8-vertex
    # code takes 1.0-1.8 s), so each size is streamed three times, with
    # three digraphs and three orders, to narrow that spread per round.
    SIZES = (4, 5, 6, 7, 8) * 3

    def __init__(self, seed):
        rng = _rng("stream", seed)
        self.seed = seed
        self.graphs = [(n, random_digraph(rng, n, edge_count(n)))
                       for n in self.SIZES]

    def setup(self, mods, clock, workdir):
        core, self.marker = mods["structcode.core"], mods["structcode.marker"]
        self.streams, self.codes = [], []
        for i, (n, e) in enumerate(self.graphs):
            with clock:
                code = self.marker.marker_encode(core.Digraph(range(n), e))
                facts = self.marker.diagram_facts(code.graph)
            vertex_facts = [f for f in facts if f[0] == "v"]
            edge_facts = [f for f in facts if f[0] == "e"]
            _rng("stream", self.seed, i).shuffle(edge_facts)
            self.streams.append((code.provenance, (range(n), e),
                                 vertex_facts, edge_facts))
            self.codes.append(code.graph)

    def warm_up(self):
        provenance, (v, e), vertex_facts, edge_facts = self.streams[0]
        dec = self.marker.MarkerStreamDecoder()
        for f in vertex_facts:
            dec.feed(f)
        return oracles.StreamCheck(provenance, v, e).step(dec.feed(edge_facts[0]))

    def round(self, meter):
        for provenance, (v, e), vertex_facts, edge_facts in self.streams:
            check = oracles.StreamCheck(provenance, v, e)
            dec = self.marker.MarkerStreamDecoder()
            if not all(check.step(dec.feed(f)) for f in vertex_facts):
                meter.reject()
            for f in edge_facts:
                meter.op(lambda: dec.feed(f), check.step)
            result = dec.result()
            if not check.finish(result.vertices, result.edges):
                meter.reject()

    def layer_extras(self, meter):
        """Streaming time of one round over batch-decoding the same codes."""
        start = time.perf_counter()
        for h in self.codes:
            self.marker.marker_decode(h)
        batch = time.perf_counter() - start
        return {"marker.stream_batch_ratio":
                sum(meter.latencies) / meter.rounds / batch}


WORKLOADS = {"games": Games, "formulas": Formulas, "decode": Decode,
             "stream": Stream}
