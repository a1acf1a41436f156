"""The benchmark's four workloads.

Each workload turns a seed into inputs (``inputs``), then runs *jobs*:
one job is a fixed sequence of calls into ispflow's public functions,
issued one at a time from a single thread (a closed loop with one
client), with every output checked against the package's own references
(``golden.py`` exact equality, ``tmatrix.EXPECTED_TABLES`` and the numeric
bands the acceptance suite pins).  Every job of a run uses the same inputs.

* ``exact-bound``   ring, series and derivation layers on the bound
  sector: few generators, real coefficients.  The seed is unused.
* ``exact-scatter`` the same layers on the scattering sector:
  K-polynomial entries, complex ring coefficients, random ring triples.
* ``flow``          the 60-digit root solves, numeric beta and special
  functions; never touches the exact ring.
* ``divergence``    T-matrix quadrature and divergence classification
  only; in any mix it does too little of the work to show.

An *op* is one timed call whose latency the benchmark reports: a
derivation stage on the exact workloads (three per job, each a different
stage, so a percentile there is the time of the stage it falls on, which
the run prints; the CLI call is part of the job but not an op), one
direct root solve on ``flow`` and one second-order ``classify_divergence``
call on ``divergence``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
import traceback
from fractions import Fraction
from pathlib import Path

import mpmath as mp

DPS = 60

# Bands.  Acceptance-suite values: pole residual 1e-28 (criterion 10),
# |S|-1 and the phase-shift tangent form 1e-35 (test_rgnumeric).  Stated
# here: a root's own residual 1e-50 (the bisection stops at 10^-(dps+2)),
# the tangent form at a scattering root 1e-28, the bound beta against its
# closed-form sectors 0, 2, 4 1e-15 (the missing sector 6 is ~1e-18 at
# g = 0.5), the scattering beta against a central difference of two
# solves at step 1e-8 1e-12 (the difference itself is good to ~1e-16), and
# an emitted 30-digit table value against its golden entry 1e-25.
ROOT_RESIDUAL = mp.mpf("1e-50")
POLE_RESIDUAL = mp.mpf("1e-28")
TAN_RESIDUAL = mp.mpf("1e-28")
UNITARITY = mp.mpf("1e-35")
BOUND_BETA_REL = mp.mpf("1e-15")
SCATTER_BETA_REL = mp.mpf("1e-12")
SCATTER_BETA_STEP = mp.mpf("1e-8")
EMITTED_REL = mp.mpf("1e-25")

# The published d = 1 table calls the ck' loop linearly divergent; the
# package classifies it finite because its two operator orderings cancel
# (README, tmatrix docstring).  The published check fails and is counted;
# the run is judged against the documented value.
DOCUMENTED_TABLE_DEFECTS = {(1, "ckprime"): "1"}


class Job:
    """Latencies and check results of one job, timed on a ``SpeedClock``."""

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.latencies = []       # raw seconds per op
        self.latencies_ref = []   # the same at reference host speed
        self.op_names = []        # the name of each op
        self.wall_s = self.wall_ref_s = None
        self._ops = []            # (start, end) of each op on the clock
        self._start = None
        self.attempted = 0
        self.failed = 0
        self.published_failed = 0
        self.failures = []
        self.outputs = []

    def span(self, name, new_op=False):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, new_op)

    def begin(self):
        self.clock.sample()
        self._start = self.clock.now()

    def op(self, name, fn, *args, **kwargs):
        """Call ``fn`` once as a timed op."""
        start = self.clock.now()
        with self.span(name, new_op=True):
            out = fn(*args, **kwargs)
        self._ops.append((start, self.clock.now()))
        self.op_names.append(name)
        return out

    def finish(self):
        """Close the job and scale its times to reference host speed."""
        end = self.clock.now()
        self.clock.sample()
        ref = self.clock.ref
        self.wall_s, self.wall_ref_s = end - self._start, ref(self._start, end)
        self.latencies = [b - a for a, b in self._ops]
        self.latencies_ref = [ref(a, b) for a, b in self._ops]

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` untimed: an oracle, or a call that is not an op."""
        with self.span(name, new_op=True):
            return fn(*args, **kwargs)

    def check(self, name, ok, output=None):
        self.attempted += 1
        self.outputs.append(f"{name}={ok if output is None else output}")
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def check_published(self, name, got, published, documented):
        """A check against a printed table with a documented defect: a
        mismatch with the print counts in ``published_failed``; the run
        fails only if ``got`` differs from the documented value."""
        self.attempted += 1
        self.outputs.append(f"{name}={got}")
        if got != published:
            self.published_failed += 1
        if got != documented:
            self.failed += 1
            self.failures.append(f"{name}: {got} (documented {documented})")

    def check_golden(self, label, got, reference):
        """Exact equality of ``got(key)`` with every reference entry."""
        with self.span("golden.check"):
            for key, expected in reference.items():
                try:
                    ok = got(key) == expected
                except (KeyError, ValueError) as exc:
                    ok = f"error {exc!r}"
                self.check(f"{label}{key}", ok is True, ok)

    def stage(self, name, fn):
        """Run one stage; an exception fails it and the job goes on."""
        try:
            fn()
        except Exception:
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{name} raised: "
                                 + traceback.format_exc(limit=4).strip())


def _sample(rng, lo, hi, n):
    """n stratified draws from [lo, hi), one per equal-width stratum, in
    stratum order.  Inputs are paired stratum by stratum in a fixed way, so
    a seed moves each input only within its stratum and the cost of a job
    varies little from seed to seed."""
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


def _span_of(xs):
    return f"[{min(xs):.3g}, {max(xs):.3g}]"


def _where(reference, keep):
    return {k: v for k, v in reference.items() if keep(k)}


def _cli_coeffs(job, argv, outdir):
    """``ispflow coeffs ... --check --out outdir``: the front end, part of
    the job but not an op."""
    from ispflow import cli
    argv = ["coeffs", *argv, "--check", "--out", str(outdir)]
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = job.call("cli.coeffs", cli.main, argv)
    job.check(f"cli {' '.join(argv[:3])} exits 0 (golden table)", code == 0,
              f"{code} {buf.getvalue().strip().splitlines()[-1:]}")


# ---------------------------------------------------------------------------
# exact-bound
# ---------------------------------------------------------------------------

class ExactBound:
    """Bound-sector coupling tables, transseries and beta, all exact."""

    name = "exact-bound"

    @staticmethod
    def inputs(seed, small=False):
        if small:
            inp = dict(cli=("--pmax", "2", "--lmax", "5"), resum_l=7,
                       fit_l=9, gs=(10, 8, 7), beta_g=7)
        else:
            inp = dict(cli=(), resum_l=13, fit_l=14, gs=(14, 12, 9),
                       beta_g=9)
        summary = (f"fixed orders, seed unused: coeffs --sector bound "
                   f"{' '.join(inp['cli']) or '(p<=4, l<=9)'}; table "
                   f"l<={inp['resum_l']} + resummation; l<={inp['fit_l']} "
                   f"+ structure fit; transseries (g, xi, sector) {inp['gs']}"
                   f" + beta")
        return inp, summary

    @staticmethod
    def run(job, inp, outdir):
        from ispflow import bound, golden
        from ispflow.expansions import growth_unit_series
        g_order, xi_order, max_sector = inp["gs"]

        def cli_stage():
            _cli_coeffs(job, ["--sector", "bound", *inp["cli"]], outdir)

        def table_stage(l_max, name, analyse):
            def solve():
                t = bound.running_coupling_coeffs(0, l_max,
                                                  g_order=l_max - 1)
                return t, analyse(t)
            table, result = job.op(name, solve)
            job.check_golden(f"bound table l<={l_max} ",
                             lambda k: table.entry(*k),
                             _where(golden.BOUND_TABLE,
                                    lambda k: k[0] == 0 and k[1] <= l_max))
            return result

        def resum_stage():
            l_max = inp["resum_l"]
            report = table_stage(l_max, "coeffs.resummation",
                                 lambda t: bound.bound_resummation_report(
                                     t, l_max))
            for label, (ok, _) in sorted(report.items()):
                job.check(f"resummation column {label}", ok)

        def fit_stage():
            heads, ok, failures = table_stage(inp["fit_l"],
                                              "coeffs.structure_fit",
                                              bound.bound_structure_fit)
            job.check("structure fit leaves no gamma remainder", ok,
                      f"{ok} heads={len(heads)} failures={len(failures)}")

        def transseries_stage():
            def solve():
                c = bound.build_ground_state_condition(g_order, xi_order)
                f = bound.ground_state_transseries(c, max_sector)
                return c, f, bound.beta_transseries(f)
            cond, f, beta = job.op("transseries_and_beta", solve)
            job.check_golden("condition a_", lambda i: cond.a_odd[i], {
                1: golden.gs_a3(g_order), 2: golden.gs_a5(g_order),
                3: golden.gs_a7(g_order)})
            with job.span("golden.check"):
                e = growth_unit_series(g_order)
                reference = {
                    l: (golden.f_sector_prefactor(l, g_order) * e ** l)
                    .truncate(f.sectors[l].trunc_order)
                    for l in (1, 3, 5, 7) if l <= max_sector}
            job.check_golden("f sector ", lambda l: f.sectors[l], reference)
            sector = beta.ts.sector
            job.check_golden("beta g^",
                             lambda k: sector(0).coefficient((k,)),
                             _where(golden.BOUND_BETA_PERTURBATIVE,
                                    lambda k: k <= inp["beta_g"]))
            job.check_golden("beta lead sector ",
                             lambda l: sector(l).coefficient((2,)),
                             _where(golden.BOUND_BETA_SECTOR_LEAD,
                                    lambda l: l < max_sector))
            job.check_golden("beta sector term ",
                             lambda k: sector(k[0]).coefficient((k[1],)),
                             _where(golden.BOUND_BETA_SECTOR_TERMS,
                                    lambda k: k[0] < max_sector))

        for name, fn in (("cli", cli_stage), ("resummation", resum_stage),
                         ("structure fit", fit_stage),
                         ("transseries and beta", transseries_stage)):
            job.stage(name, fn)


# ---------------------------------------------------------------------------
# exact-scatter
# ---------------------------------------------------------------------------

def random_constexpr(rng):
    """Three random monomials over two of pi, gamma, zeta3, K, n with
    Gaussian-rational coefficients (the acceptance ring-law generator)."""
    from ispflow.constexpr import ConstExpr, GRat
    out = ConstExpr.zero()
    for _ in range(3):
        coef = GRat(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 5)))
        powers = {g: rng.randint(0, 3) for g in
                  rng.sample(("pi", "gamma", "zeta3", "K", "n"), 2)}
        out = out + ConstExpr.monomial(coef, **powers)
    return out


class ExactScatter:
    """Scattering-sector table at a seeded K, beta, analytic continuation
    and seeded ring-law triples."""

    name = "exact-scatter"

    @staticmethod
    def inputs(seed, small=False):
        rng = random.Random(seed)
        k_value = round(rng.uniform(-0.3, 0.3), 6)
        if small:
            inp = dict(p_max=2, l_max=5, beta=(2, 7), cont=(3, 1),
                       n_triples=100)
        else:
            inp = dict(p_max=4, l_max=7, beta=(4, 11), cont=(5, 2),
                       n_triples=1000)
        inp["k_value"] = k_value
        inp["triples"] = [tuple(random_constexpr(rng) for _ in range(3))
                          for _ in range(inp["n_triples"])]
        terms = sum(len(x.terms) for t in inp["triples"] for x in t)
        summary = (f"K={k_value} for coeffs --sector scattering "
                   f"(p<={inp['p_max']}, l<={inp['l_max']}); scatter_beta"
                   f"{inp['beta']}; continuation{inp['cont']}; "
                   f"{inp['n_triples']} ring triples ({terms} terms)")
        return inp, summary

    @staticmethod
    def run(job, inp, outdir):
        from ispflow import golden, scatter
        p_max, l_max = inp["p_max"], inp["l_max"]

        def cli_stage():
            _cli_coeffs(job, ["--sector", "scattering", "--pmax", str(p_max),
                              "--lmax", str(l_max),
                              "--kval", repr(inp["k_value"])], outdir)
            # the emitted values are the golden entries evaluated at K
            with (Path(outdir) / "coeffs_scattering.csv").open() as fh:
                rows = {(int(r["p"]), int(r["l"])): r["value"]
                        for r in csv.DictReader(fh)}
            at = {"n": 1, "K": mp.mpf(inp["k_value"]), "L": 0, "lam": 0,
                  "shat": 0}
            with job.span("golden.check"), mp.workdps(DPS):
                for key, expr in sorted(golden.SCATTER_TABLE.items()):
                    if key[0] > p_max or key[1] > l_max:
                        continue
                    want = mp.re(expr.eval_mp(at))
                    err = abs(mp.mpf(rows[key]) - want)
                    job.check(f"emitted value {key} at K",
                              err <= EMITTED_REL * max(1, abs(want)),
                              rows[key])

        def beta_stage():
            max_sector, g_order = inp["beta"]
            beta = job.op("scatter_beta", scatter.scatter_beta, max_sector,
                          g_order=g_order)
            sector = beta.ts.sector
            job.check_golden("scatter beta g^",
                             lambda k: sector(0).coefficient((k,)),
                             _where(golden.SCATTER_BETA_PERTURBATIVE,
                                    lambda k: k <= g_order))
            job.check_golden("scatter beta lead sector ",
                             lambda l: sector(l).coefficient((2,)),
                             _where(golden.SCATTER_BETA_SECTOR_LEAD,
                                    lambda l: l <= max_sector))
            job.check_golden("scatter beta sector term ",
                             lambda k: sector(k[0]).coefficient((k[1],)),
                             _where(golden.SCATTER_BETA_SECTOR_TERMS,
                                    lambda k: k[0] <= max_sector))

        def continuation_stage():
            ok = job.op("analytic_continuation",
                        scatter.analytic_continuation_check, *inp["cont"])
            job.check("K,L -> -i/2 collapses g_S onto g_B", ok is True)

        def ring_stage():
            def laws():
                return [i for i, (a, b, c) in enumerate(inp["triples"])
                        if not (a * b == b * a
                                and (a + b) * c == a * c + b * c
                                and (a * b) * c == a * (b * c))]
            bad = set(job.op("constexpr.random_ops", laws))
            for i in range(len(inp["triples"])):
                job.check(f"ring laws triple {i}", i not in bad)

        for name, fn in (("cli", cli_stage), ("beta", beta_stage),
                         ("continuation", continuation_stage),
                         ("ring triples", ring_stage)):
            job.stage(name, fn)


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

class Flow:
    """Seeded 60-digit root solves in both sectors, numeric beta points and
    phase-shift / S-matrix samples, each against an independent oracle."""

    name = "flow"

    @staticmethod
    def inputs(seed, small=False):
        rng = random.Random(seed)
        n_bound, n_scatter, n_beta, n_sbeta, n_phase = (
            (6, 4, 1, 1, 3) if small else (20, 14, 1, 1, 4))
        branches = [i % 6 for i in range(n_bound)]
        inp = dict(
            bound=list(zip(_sample(rng, 1.0, 6.0, n_bound), branches)),
            scatter=list(zip(_sample(rng, 1.0, 6.0, n_scatter),
                             _sample(rng, -0.3, 0.3, n_scatter)[::-1])),
            beta_g=_sample(rng, 0.15, 0.5, n_beta),
            sbeta=list(zip(_sample(rng, 0.15, 0.3, n_sbeta),
                           _sample(rng, -0.3, 0.3, n_sbeta))),
            phase=list(zip(_sample(rng, 0.05, 2.0, n_phase),
                           _sample(rng, 0.02, 0.95, n_phase)[::-1])),
            smatrix=list(zip(_sample(rng, 0.05, 2.0, n_phase),
                             _sample(rng, 0.02, 0.95, n_phase))))
        summary = (
            f"{n_bound} bound solves: log10 ratio "
            f"{_span_of([r for r, _ in inp['bound']])}, branches "
            f"{sorted(set(branches))}; {n_scatter} scattering solves: "
            f"log10 Lambda/p {_span_of([r for r, _ in inp['scatter']])}, "
            f"K {_span_of([k for _, k in inp['scatter']])}; bound beta at "
            f"g {_span_of(inp['beta_g'])}; scattering beta at (g, K) "
            f"{[(round(g, 3), round(k, 3)) for g, k in inp['sbeta']]}; "
            f"{n_phase} phase + {n_phase} S-matrix samples; dps={DPS}")
        return inp, summary

    @staticmethod
    def run(job, inp, outdir):
        from ispflow import bound, rgnumeric as rg
        from ispflow.specfun import bessel_j_imag

        def bound_roots():
            for log_ratio, branch in inp["bound"]:
                ratio = mp.mpf(10) ** mp.mpf(log_ratio)
                sol = job.op("solve_running_coupling",
                             rg.solve_running_coupling, ratio, branch, DPS)
                pole = job.call("smatrix_pole_check", rg.smatrix_pole_check,
                                sol.g, sol.ratio, DPS)
                job.check(f"bound root {log_ratio:.4f} b={branch}",
                          sol.g > 0 and sol.residual <= ROOT_RESIDUAL
                          and pole <= POLE_RESIDUAL,
                          f"{mp.nstr(sol.g, 30)} {sol.iterations}")

        def scatter_roots():
            for log_lam, k in inp["scatter"]:
                lam = mp.mpf(10) ** mp.mpf(log_lam)
                sol = job.op("solve_scattering_coupling",
                             rg.solve_scattering_coupling, lam, k, DPS)

                def tangent_form():
                    # K + (1/2) coth(pi g/2) tan Arg J_ig(2p/Lambda) = 0
                    with mp.workdps(DPS + 10):
                        j = bessel_j_imag(sol.g, 2 / lam, DPS).mpc
                        return abs(mp.mpf(k) + mp.coth(mp.pi * sol.g / 2)
                                   / 2 * mp.tan(mp.arg(j)))
                resid = job.call("phase condition", tangent_form)
                job.check(f"scattering root {log_lam:.4f} K={k:.4f}",
                          sol.g > 0 and sol.residual <= ROOT_RESIDUAL
                          and resid <= TAN_RESIDUAL,
                          f"{mp.nstr(sol.g, 30)} {sol.iterations}")

        def bound_beta():
            for g in inp["beta_g"]:
                with mp.workdps(DPS + 10):
                    ratio = mp.e ** (mp.pi / mp.mpf(g) + mp.euler)
                sol = job.op("solve_running_coupling",
                             rg.solve_running_coupling, ratio, 0, DPS)
                bn = job.call("numeric_beta", rg.numeric_beta, ratio, 0,
                              dps=DPS)
                exact = job.call("beta_exact_sector_eval", lambda: sum(
                    bound.beta_exact_sector_eval(sol.g, s, dps=DPS)
                    for s in (0, 2, 4)))
                with mp.workdps(DPS):
                    rel = abs(bn - exact) / abs(exact)
                job.check(f"bound beta at g={g:.4f}", rel <= BOUND_BETA_REL,
                          mp.nstr(bn, 30))

        def scatter_beta():
            h = SCATTER_BETA_STEP
            for g, k in inp["sbeta"]:
                with mp.workdps(DPS + 10):
                    lam = mp.e ** (mp.pi / mp.mpf(g) + mp.euler
                                   + mp.mpf(k) * mp.pi)
                    lam_up, lam_down = lam * mp.e ** h, lam * mp.e ** -h
                bn = job.call("numeric_beta_scattering",
                              rg.numeric_beta_scattering, lam, k, dps=DPS)
                up, down = (job.op("solve_scattering_coupling",
                                   rg.solve_scattering_coupling, x, k, DPS)
                            for x in (lam_up, lam_down))
                with mp.workdps(DPS):
                    ref = (up.g - down.g) / (2 * h)
                    rel = abs(bn - ref) / abs(ref)
                job.check(f"scattering beta at g={g:.4f} K={k:.4f}",
                          rel <= SCATTER_BETA_REL, mp.nstr(bn, 30))

        def phase_samples():
            for g, p in inp["phase"]:
                delta, resid, udef = job.call(
                    "phase_shift", rg.phase_shift, mp.mpf(g), mp.mpf(p), DPS,
                    check=True)
                job.check(f"phase shift g={g:.4f} p={p:.4f}",
                          resid <= UNITARITY and udef <= UNITARITY,
                          mp.nstr(delta, 30))
            for g, p in inp["smatrix"]:
                s = job.call("smatrix", rg.smatrix, mp.mpf(g), mp.mpf(p), DPS)
                with mp.workdps(DPS):
                    defect = abs(abs(s) - 1)
                job.check(f"|S| = 1 at g={g:.4f} p={p:.4f}",
                          defect <= UNITARITY, mp.nstr(s, 30))

        for name, fn in (("bound roots", bound_roots),
                         ("scattering roots", scatter_roots),
                         ("bound beta", bound_beta),
                         ("scattering beta", scatter_beta),
                         ("phase and S-matrix", phase_samples)):
            job.stage(name, fn)


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

# criterion 9's i-epsilon-halving set
HALVING_SET = (("c2", 1), ("k2", 1), ("ck", 1), ("c2", 2), ("k2", 2))
# The d = 2 c2 loop (a 2-D radial quadrature) takes 1-2.5 s a call on a
# seeded grid, and its cost moves 2x with the grid; a few such variants
# would set most of a job's time and its seed-to-seed spread.  It is
# classified on the default grid and in the halving set, not as a variant.
COSTLY_VARIANT = {(2, "c2")}


class Divergence:
    """Default divergence tables against the published ones, the
    i-epsilon-halving set, and variants on seeded grids, at a few fixed
    i_epsilon levels, that must classify as the default grid does."""

    name = "divergence"

    @staticmethod
    def inputs(seed, small=False):
        from ispflow.tmatrix import SECOND_ORDER_TERMS
        rng = random.Random(seed)
        pairs = [(d, t) for d in (1, 2, 3) for t in SECOND_ORDER_TERMS[d]
                 if (d, t) not in COSTLY_VARIANT]
        per_term = 1 if small else 4
        order = pairs * per_term
        starts = _sample(rng, 2.0, 2.5, len(order))
        # the k-th variant of each term takes the midpoint of the k-th of
        # per_term strata of [0.5, 1] 1e-3: a quadrature's cost is smooth
        # in the grid start but jumps up to 4x between nearby i_epsilon
        # values, so a seeded i_epsilon would set the job's cost by seed
        levels = [0.5e-3 * (1 + (k + 0.5) / per_term)
                  for k in range(per_term)]
        eps = [levels[i // len(pairs)] for i in range(len(order))]
        variants = [(d, t, a, e) for (d, t), a, e in zip(order, starts, eps)]
        summary = (f"default tables d=1,2,3 + {len(HALVING_SET)} i-epsilon "
                   f"halvings; {len(order)} variants ({per_term} per "
                   f"second-order term but d=2 c2): grid start 10^a, a "
                   f"{_span_of(starts)}, i_epsilon "
                   f"{[round(e, 7) for e in levels]}")
        return dict(variants=variants), summary

    @staticmethod
    def run(job, inp, outdir):
        import numpy as np
        from ispflow import tmatrix
        default = {}

        def tables():
            for d in (1, 2, 3):
                for term in tmatrix.FIRST_ORDER_TERMS[d]:
                    rep = job.call("classify first order",
                                   tmatrix.classify_divergence, term, d,
                                   first_order=True)
                    default[(d, term)] = rep.classification
                for term in tmatrix.SECOND_ORDER_TERMS[d]:
                    rep = job.op("classify_divergence",
                                 tmatrix.classify_divergence, term, d)
                    default[(d, term)] = rep.classification
                for term, published in sorted(
                        tmatrix.EXPECTED_TABLES[d].items()):
                    job.check_published(
                        f"table d={d} {term}", default[(d, term)], published,
                        DOCUMENTED_TABLE_DEFECTS.get((d, term), published))

        def halving():
            for term, d in HALVING_SET:
                rep = job.op("classify_divergence",
                             tmatrix.classify_divergence, term, d,
                             i_epsilon=0.5e-3)
                job.check(f"i-epsilon halving d={d} {term}",
                          rep.classification == default[(d, term)],
                          rep.classification)

        def variants():
            for d, term, a, eps in inp["variants"]:
                grid = np.geomspace(10.0 ** a, 10.0 ** (a + 2), 8)
                rep = job.op("classify_divergence",
                             tmatrix.classify_divergence, term, d,
                             lambdas=grid, i_epsilon=eps)
                job.check(f"variant d={d} {term} a={a:.4f} eps={eps:.3e}",
                          rep.classification == default[(d, term)],
                          rep.classification)

        for name, fn in (("tables", tables), ("halving", halving),
                         ("variants", variants)):
            job.stage(name, fn)


WORKLOADS = {w.name: w for w in (ExactBound, ExactScatter, Flow, Divergence)}
