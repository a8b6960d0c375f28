"""The benchmark's workloads: population, one timed pass, invariant gate.

Every population is exhaustive and fixed; the seed only permutes the
order in which a pass visits it (pair order in ``hom-bijection``, step
order in ``verify-catalog``), so every invariant holds for every seed.

The program is always called through module attributes
(``enumeration.count_chainmails``), never through names bound at import,
so the layer tracer's rebinding sees the top-level calls too.
"""

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from itertools import product
from time import perf_counter

from chainmail import enumeration, lattice, mails, verify
from chainmail.errors import ChainmailError, NotALattice

SUITE_NAMES = ("connectivity-conditions", "local-connectivity",
               "unit-counit", "adjunction", "pairwise-criterion")


@dataclass(frozen=True)
class Populations:
    """Population sizes and the invariant outputs they must produce."""

    census_size: int = 8
    census_counts: dict = field(default_factory=lambda: {
        1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 62, 7: 303, 8: 1842})
    hom_size: int = 5
    hom_chainmails: int = 45
    hom_lattices: int = 10
    hom_total: int = 18529          # strict homs, and weak homs, summed
    suite_size: object = None       # None: each suite's default population
    suite_checked: dict = field(default_factory=lambda: {
        "connectivity-conditions": 25, "local-connectivity": 25,
        "unit-counit": 159, "adjunction": 170, "pairwise-criterion": 405})
    posets_size: int = 7
    poset_counts: dict = field(default_factory=lambda: {
        1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045})
    catalog_size: int = 7
    catalog_files: int = 390
    # sha256 of manifest.jsonl followed by the DOT files, in name order
    catalog_sha256: str = ("4463eae851f05c2ab02ace938f90af4a"
                           "c3fe9248efefab0f247cc433858e4132")


FULL = Populations()


class Gate:
    """Invariant checks, run outside the timers; counts what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def expect(self, what, got, want):
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.messages.append(f"{what}: got {got!r}, want {want!r}")

    def ok(self):
        return self.failed == 0


def census_jobs(requested):
    """Workers for a parallel census: never more than the CPUs present."""
    return max(1, min(requested, os.cpu_count() or 1))


class Census:
    """Mail-connected census to ``census_size`` with a fixed worker count."""

    def __init__(self, name, jobs):
        self.name = name
        self.jobs = jobs

    def setup(self, pops, rng, tmp_dir):
        task = enumeration.EnumerationTask(
            pops.census_size, "mail-connected-chainmails", jobs=self.jobs)
        return {"task": task}

    def prepare(self, state):
        pass

    def run(self, state):
        return {"counts": enumeration.count_chainmails(state["task"])}

    def check(self, pops, state, output, gate):
        counts = output["counts"]
        gate.expect("census sizes", sorted(counts), sorted(pops.census_counts))
        for size, want in sorted(pops.census_counts.items()):
            gate.expect(f"census n={size} jobs={self.jobs}",
                        counts.get(size), want)


class HomBijection:
    """The exhaustive hom-set bijection: every chainmail x every lattice,
    strict then weak, one ``check_adjunction_bijection`` call each."""

    name = "hom-bijection"
    jobs = 1

    def setup(self, pops, rng, tmp_dir):
        gs, ls = [], []
        for size in range(1, pops.hom_size + 1):
            for p in enumeration.enumerate_posets(size):
                if mails.poset_is_chainmail(p):
                    gs.append(mails.as_chainmail(p))
                try:
                    ls.append(lattice.as_complete_lattice(p))
                except NotALattice:
                    pass
        pairs = list(product(gs, ls))
        rng.shuffle(pairs)
        return {"pairs": pairs, "chainmails": len(gs), "lattices": len(ls)}

    def prepare(self, state):
        pass

    def run(self, state):
        results = []
        latencies = []
        for g, lat in state["pairs"]:
            pair = []
            for weak in (False, True):
                t0 = perf_counter()
                try:
                    pair.append(verify.check_adjunction_bijection(
                        g, lat, weak=weak))
                except ChainmailError as e:
                    pair.append(e)
                latencies.append(perf_counter() - t0)
            results.append(pair)
        return {"results": results, "latencies": latencies}

    def check(self, pops, state, output, gate):
        gate.expect("hom chainmails", state["chainmails"], pops.hom_chainmails)
        gate.expect("hom lattices", state["lattices"], pops.hom_lattices)
        totals = [0, 0]
        for (g, lat), pair in zip(state["pairs"], output["results"]):
            for i, got in enumerate(pair):
                ok = isinstance(got, int)
                gate.expect(f"bijection n={g.n}/{lat.n} weak={bool(i)}",
                            "ok" if ok else repr(got), "ok")
                totals[i] += got if ok else 0
            if all(isinstance(v, int) for v in pair):
                gate.expect(f"strict <= weak n={g.n}/{lat.n}",
                            pair[0] <= pair[1], True)
        gate.expect("strict hom total", totals[0], pops.hom_total)
        gate.expect("weak hom total", totals[1], pops.hom_total)


class VerifyCatalog:
    """The five suites, the all-posets count and the catalog, one pass."""

    name = "verify-catalog"
    jobs = 1

    def setup(self, pops, rng, tmp_dir):
        steps = [("suite", s) for s in SUITE_NAMES]
        steps += [("posets", None), ("catalog", None)]
        rng.shuffle(steps)
        return {"steps": steps, "pops": pops,
                "out": os.path.join(tmp_dir, "catalog")}

    def prepare(self, state):
        shutil.rmtree(state["out"], ignore_errors=True)

    def run(self, state):
        pops = state["pops"]
        out = {"suites": {}, "suite_s": {}}
        for kind, name in state["steps"]:
            t0 = perf_counter()
            if kind == "suite":
                out["suites"][name] = verify.run_suite(name, pops.suite_size)
                out["suite_s"][name] = perf_counter() - t0
            elif kind == "posets":
                out["posets"] = enumeration.count_chainmails(
                    enumeration.EnumerationTask(pops.posets_size,
                                                "all-posets"))
            else:
                out["catalog"] = enumeration.emit_catalog(
                    enumeration.EnumerationTask(pops.catalog_size,
                                                "mail-connected-chainmails"),
                    state["out"])
        return out

    def check(self, pops, state, output, gate):
        for name in SUITE_NAMES:
            report = output["suites"][name]
            gate.expect(f"suite {name} checked", report.checked,
                        pops.suite_checked[name])
            gate.expect(f"suite {name} ok", report.ok(), True)
        gate.expect("all-posets counts", output["posets"], pops.poset_counts)
        files, records, digest, size = catalog_summary(state["out"])
        dots = [f for f in files if f.endswith(".dot")]
        gate.expect("catalog entries", len(output["catalog"]),
                    pops.catalog_files)
        gate.expect("catalog DOT files", len(dots), pops.catalog_files)
        gate.expect("catalog distinct codes",
                    len({r["code"] for r in records}), pops.catalog_files)
        gate.expect("catalog manifest names the DOT files",
                    sorted(r["file"] for r in records) == dots
                    and files == sorted(dots + ["manifest.jsonl"]), True)
        gate.expect("catalog sha256", digest, pops.catalog_sha256)
        output["catalog_bytes"] = size


def catalog_summary(out_dir):
    """(file names, manifest records, sha256, total bytes) of a catalog."""
    files = sorted(os.listdir(out_dir))
    h = hashlib.sha256()
    size = 0
    for name in files:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(data)
        size += len(data)
    with open(os.path.join(out_dir, "manifest.jsonl")) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return files, records, h.hexdigest(), size


WORKLOADS = {
    "census8": Census("census8", 1),
    "census8-jobs2": Census("census8-jobs2", census_jobs(2)),
    "hom-bijection": HomBijection(),
    "verify-catalog": VerifyCatalog(),
}
