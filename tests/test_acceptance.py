"""End-to-end acceptance: each test prints one PASS/FAIL line.

Budgets: criterion 1 targets < 2 minutes, criterion 2 < 10 minutes; both run
far faster in practice. Every random draw is seeded, so outcomes are
reproducible run-to-run.
"""

import random
import time

from copack.branching import solve_cpcp, solve_cpp
from copack.cli import command_factors
from copack.cutcount import derive_seed, parity_dp, sample_weights
from copack.decomp import PathDecomposition, exact_pathwidth, guard_check, heuristic_pd, to_nice, validate
from copack.generators import gnm_graph, planted_graph, proper_graph
from copack.graph import (
    Graph,
    find_contractible,
    find_triangle_single_neighbor,
    find_trivial_components,
    low_degree_edges,
)
from copack.bdd import bdd_dp_solve
from copack.oracles import oracle_min
from cc_bruteforce import cc_candidate_counts, enumerate_marked_cc_solutions, fold_counts, marked_cc_counts


def _report(name, ok, detail=""):
    print("%s: %s%s" % ("PASS" if ok else "FAIL", name, " (%s)" % detail if detail else ""))
    assert ok, "%s %s" % (name, detail)


def _instance_pool(count, seed_base, n_lo=4, n_hi=9):
    """Random graphs stratified across sparse / medium / dense."""
    rng = random.Random(seed_base)
    pool = []
    for i in range(count):
        n = rng.randint(n_lo, n_hi)
        mmax = n * (n - 1) // 2
        tier = i % 3
        if tier == 0:
            m = rng.randint(0, min(n - 1, mmax))
        elif tier == 1:
            m = rng.randint(min(n, mmax), min(2 * n, mmax))
        else:
            m = rng.randint(min(2 * n, mmax), mmax)
        pool.append(gnm_graph(n, m, seed_base + 31 * i))
    return pool


def test_criterion_01_cpcp_oracle_equivalence():
    start = time.monotonic()
    pool = _instance_pool(2000, seed_base=101)
    failures = []
    for idx, g in enumerate(pool):
        mn = oracle_min(g, "cpcp")
        for k in range(g.alive_count + 1):
            out = solve_cpcp(g, k)
            if out.answer != (k >= mn):
                failures.append((idx, k, mn, g.edges()))
    elapsed = time.monotonic() - start
    _report(
        "criterion 1: cpcp matches oracle on 2000 graphs, all k",
        not failures and elapsed < 120,
        "%d failures, %.1fs" % (len(failures), elapsed),
    )


def test_criterion_02_cpp_oracle_equivalence():
    start = time.monotonic()
    pool = _instance_pool(2000, seed_base=202)
    false_pos = []
    false_neg = []
    for idx, g in enumerate(pool):
        mn = oracle_min(g, "cpp")
        for k in range(g.alive_count + 1):
            seed = derive_seed(987654321, idx * 64 + k)
            out = solve_cpp(g, k, repeats=12, seed=seed)
            if out.answer and k < mn:
                false_pos.append((idx, k, mn, seed, g.edges()))
            if not out.answer and k >= mn:
                false_neg.append((idx, k, mn, seed, g.edges()))
    elapsed = time.monotonic() - start
    if false_neg:
        print("seed capture for parity debugging:", false_neg[:3])
    _report(
        "criterion 2: cpp matches oracle on 2000 graphs (repeats=12)",
        not false_pos and not false_neg and elapsed < 600,
        "fp=%d fn=%d, %.1fs" % (len(false_pos), len(false_neg), elapsed),
    )


def _counter_pool():
    rng = random.Random(33)
    pool = []
    for i in range(300):
        n = rng.randint(4, 6)
        m = rng.randint(0, n * (n - 1) // 2)
        pool.append(gnm_graph(n, m, 4040 + i))
    return pool


def test_criterion_03_marked_vs_candidate_parity():
    bad = 0
    for idx, g in enumerate(_counter_pool()):
        for s in range(3):
            w = sample_weights(g, seed=derive_seed(3000 + idx, s))
            mk = marked_cc_counts(g, w)
            cand = cc_candidate_counts(g, w)
            keys = {(n, e, ww) for (_, n, e, ww) in mk}
            keys.update((n, e, ww) for (_, n, e, ww, m) in cand)
            for n, e, ww in keys:
                marked_parity = sum(
                    c for (a2, n2, e2, w2), c in mk.items() if (n2, e2, w2) == (n, e, ww)
                ) % 2
                cand_parity = (
                    sum(
                        cand.get((a, n, e, ww, n - e - a), 0)
                        for a in range(n + 1)
                    )
                    % 2
                )
                if marked_parity != cand_parity:
                    bad += 1
    _report("criterion 3: marked-solution parity equals candidate parity", bad == 0, "%d keys off" % bad)


def test_criterion_04_parity_dp_vs_bruteforce():
    bad = 0
    for idx, g in enumerate(_counter_pool()):
        ev = to_nice(exact_pathwidth(g)[1])
        for s in range(3):
            w = sample_weights(g, seed=derive_seed(4000 + idx, s))
            counts = cc_candidate_counts(g, w)
            for need in range(g.alive_count + 2):
                if parity_dp(g, ev, w, need) != fold_counts(counts, need):
                    bad += 1
    _report(
        "criterion 4: parity DP equals brute-force counts mod 2 on all keys, at every need",
        bad == 0,
        "%d tables off" % bad,
    )


def test_criterion_05_bdd_dp_vs_oracle():
    rng = random.Random(55)
    bad = 0
    for i in range(500):
        n = rng.randint(2, 8)
        m = rng.randint(0, n * (n - 1) // 2)
        g = gnm_graph(n, m, 5050 + i)
        decs = [exact_pathwidth(g)[1], heuristic_pd(g), PathDecomposition([set(g.vertices())])]
        order = g.vertices()
        rng.shuffle(order)
        placed, bags = set(), []
        for v in order:
            bags.append({u for u in placed if g.neighbors(u) - placed} | {v})
            placed.add(v)
        decs[2] = PathDecomposition(bags)
        for d in (0, 1, 2, 3):
            mn = oracle_min(g, "bdd", d)
            sizes = set()
            for pd in decs:
                assert validate(g, pd) is None
                sizes.add(bdd_dp_solve(g, to_nice(pd), d)[0])
            if sizes != {mn}:
                bad += 1
    _report("criterion 5: degree-deletion DP equals oracle, decomposition-independent", bad == 0)


def test_criterion_06_branching_factors():
    rows = command_factors()
    bad = [r for r in rows if abs(r["delta"]) > 1e-4 + 1e-9]
    _report(
        "criterion 6: branching factors reproduce quoted values within 1e-4",
        not bad,
        "; ".join("%s %.4f vs %.4f" % (r["step"], r["computed"], r["reference"]) for r in bad),
    )


def test_criterion_07_guard_inequalities_on_proper_graphs():
    bad = 0
    sizes = []
    for i in range(200):
        n = 7 + (i % 14)  # 7..20
        g = proper_graph(n, seed=7000 + i)
        sizes.append(n)
        k = oracle_min(g, "cpcp", limit=20)
        if not guard_check(g, k):
            bad += 1
    _report(
        "criterion 7: both size inequalities hold at the oracle optimum on 200 proper graphs",
        bad == 0,
        "n in [%d, %d]" % (min(sizes), max(sizes)),
    )


def test_criterion_08_isolation_statistics():
    from copack.generators import cycle_graph

    g = cycle_graph(7)
    # the family that the yes-decision for (C7, k=1) rides on: solutions
    # keeping at least |V| - 1 vertices (the empty solution would isolate
    # trivially at weight zero)
    family = [sol for sol in enumerate_marked_cc_solutions(g) if len(sol.kept) >= g.alive_count - 1]
    assert family
    universe = g.alive_count + g.edge_count  # 14
    n_max = 3 * universe
    samples = 300
    isolated = 0
    for s in range(samples):
        w = sample_weights(g, seed=derive_seed(808, s))
        best = None
        best_count = 0
        for sol in family:
            wt = sol.weight(w)
            if best is None or wt < best:
                best, best_count = wt, 1
            elif wt == best:
                best_count += 1
        if best_count == 1:
            isolated += 1
    rate = isolated / samples
    bound = 1 - universe / n_max
    sigma = (bound * (1 - bound) / samples) ** 0.5
    _report(
        "criterion 8: empirical isolation rate within 3 sigma of the guarantee",
        rate >= bound - 3 * sigma,
        "rate=%.3f bound=%.3f sigma=%.3f" % (rate, bound, sigma),
    )


def test_criterion_09_reduction_rule_soundness():
    rng = random.Random(99)
    fired = {"rr1": 0, "rr2": 0, "rr3": 0, "rrstar2": 0}
    bad = []
    trial = 0
    while min(fired.values()) < 300 and trial < 20000:
        trial += 1
        n = rng.randint(5, 9)
        style = trial % 4
        if style == 0:
            m = rng.randint(0, n)
            g = gnm_graph(n, m, 9900 + trial)
        elif style == 1:
            # triangle feeding one gate vertex, base graph behind it
            base = gnm_graph(n - 4, rng.randint(0, max(0, (n - 4) * (n - 5) // 2)), 9300 + trial)
            edges = [(u + 4, v + 4) for u, v in base.edges()]
            edges += [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)]
            if rng.random() < 0.5:
                edges.append((2, 3))
            if n > 4:
                edges.append((3, 4))
            g = Graph.from_edges(n, edges)
        elif style == 2:
            # subdivision: long induced degree-2 path
            base = gnm_graph(n - 3, rng.randint(n - 4, max(n - 4, (n - 3) * (n - 4) // 2)), 9500 + trial)
            edges = base.edges()
            if not edges:
                continue
            u, v = edges[rng.randrange(len(edges))]
            rest = [e for e in edges if e != (u, v)]
            chain = [u, n - 3, n - 2, n - 1, v]
            rest += [(chain[i], chain[i + 1]) for i in range(4)]
            g = Graph.from_edges(n, rest)
        else:
            m = rng.randint(n, min(2 * n, n * (n - 1) // 2))
            g = gnm_graph(n, m, 9700 + trial)

        comps = find_trivial_components(g)
        comp = comps[0] if comps else None
        if comp is not None and len(comp) < g.alive_count and fired["rr1"] < 300:
            fired["rr1"] += 1
            rest = g.without_vertices(comp)
            sub = g.without_vertices(set(g.vertices()) - set(comp))
            for problem in ("cpcp", "cpp"):
                if oracle_min(g, problem) != oracle_min(rest, problem) + oracle_min(sub, problem):
                    bad.append(("rr1", problem, trial))
        e = (low_degree_edges(g) or [None])[0]
        if e is not None and fired["rr2"] < 300:
            fired["rr2"] += 1
            g2 = g.copy()
            g2.remove_edge(*e)
            if oracle_min(g, "cpcp") != oracle_min(g2, "cpcp"):
                bad.append(("rr2", trial))
        tri = find_triangle_single_neighbor(g)
        if tri is not None and fired["rr3"] < 300:
            fired["rr3"] += 1
            if oracle_min(g, "cpcp") != 1 + oracle_min(g.without_vertices(tri), "cpcp"):
                bad.append(("rr3", trial))
        p = find_contractible(g)
        if p is not None and fired["rrstar2"] < 300:
            fired["rrstar2"] += 1
            g2 = g.copy()
            g2.remove_vertex(p[1])
            g2.add_edge(p[0], p[2])
            if oracle_min(g, "cpp") != oracle_min(g2, "cpp"):
                bad.append(("rrstar2", trial))
    _report(
        "criterion 9: each reduction rule is answer-preserving on 300 firing instances",
        not bad and min(fired.values()) >= 300,
        "fired=%s bad=%s" % (fired, bad[:3]),
    )


def test_criterion_10_scale_smoke():
    worst = {}
    dp_routed = 0
    for k in range(4, 11):
        for s in range(3):
            g = planted_graph(16 + k, k, seed=1000 * k + s)
            out = solve_cpcp(g, k)
            assert out.answer
            worst[k] = max(worst.get(k, 0), out.stats.nodes)
            dp_routed += out.stats.dp_calls
    bad = [(k, v) for k, v in worst.items() if v >= 3.0 ** k]
    _report(
        "criterion 10: node counts stay under 3^k and leaves route through the DP",
        not bad and dp_routed >= 1,
        "worst=%s dp_calls=%d" % (sorted(worst.items()), dp_routed),
    )
