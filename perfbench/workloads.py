"""The benchmark's three workloads.

A workload runs its fixed call sequence once per pass, as a closed loop: each
call starts when the previous one has returned and the speed gauge has timed
its reference kernel (speed.py). Each call is timed alone; ``collect``,
``verify``, ``fingerprint`` and ``work`` run after the pass. Every call of a run uses the run's
seed, so each pass repeats the same work and must reproduce the first pass
exactly. Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
import time
from pathlib import Path

import checks


class Calls:
    """Runs one pass's operations in order. Each counts as attempted; an
    exception or a nonzero exit code marks it failed, and so do failed
    output checks later on. Each is timed alone: ``raw_s`` sums their
    seconds, ``scaled_s`` their seconds at the gauge's reference speed."""

    def __init__(self, cli_module, gauge) -> None:
        self._cli = cli_module
        self._gauge = gauge
        self.ops: list[str] = []
        self.failed: dict[str, str] = {}
        self.stderr: dict[str, str] = {}
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.timings: list[tuple[str, float, float]] = []  # (op, start, seconds)

    def _timed(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.timings.append((self.ops[-1], start, elapsed))
            self.raw_s += elapsed
            self.scaled_s += self._gauge.scale(elapsed)

    def fail(self, op: str, reason: str) -> None:
        self.failed.setdefault(op, reason)

    def cli(self, op: str, argv: list[str]) -> None:
        """``homophily_lab.cli.main(argv)``, capturing its stderr echo. The
        attribute is looked up per call, so a traced binding is used."""
        self.ops.append(op)
        captured = io.StringIO()
        try:
            with contextlib.redirect_stderr(captured):
                code = self._timed(self._cli.main, argv)
        except SystemExit as exit_:  # argparse rejects bad flags this way
            code = exit_.code
        except Exception as err:  # any escape from main() is a failed operation
            self.fail(op, f"raised {err!r}")
            code = None
        self.stderr[op] = captured.getvalue()
        if code not in (0, None):
            self.fail(op, f"exit code {code}: {captured.getvalue()[-400:]!r}")

    def lib(self, op: str, fn, *args):
        self.ops.append(op)
        try:
            return self._timed(fn, *args)
        except Exception as err:  # recorded and counted, the pass goes on
            self.fail(op, f"raised {err!r}")
            return None


def _read_csv(path: Path) -> list[dict[str, str]] | None:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return list(csv.DictReader(handle))
    except OSError:
        return None


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class McPanels:
    """Figure panels c, d and e at N = 1000 with two replicates per point,
    then many replicates of one small point through ``simulate``."""

    name = "mc_panels"
    panels = ("c", "d", "e")
    panel_replicates = 2
    simulate_point = (100, 0.2, 0.8, 0.8)
    simulate_replicates = 4000
    # FigureOptions defaults the CLI uses for panels c to e
    slope_h_grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    detect_bracket = (0.15, 0.35)
    detect_tol = 0.01
    detect_h11 = 0.5
    f_star_tolerance = 0.015  # acceptance check c6

    def __init__(self, lab, seed: int) -> None:
        self.lab = lab
        self.seed = seed

    def run(self, calls: Calls, tmp: Path) -> dict[str, Path]:
        paths = {}
        seed = str(self.seed)
        for panel in self.panels:
            op = f"figure_{panel}"
            paths[op] = tmp / f"fig1{panel}.csv"
            calls.cli(op, ["figure", "--panel", panel, "-r", str(self.panel_replicates),
                           "--seed", seed, "-o", str(paths[op])])
        n, f0, h00, h11 = self.simulate_point
        paths["simulate"] = tmp / "simulate.csv"
        calls.cli("simulate", ["simulate", "--n", str(n), "--f0", str(f0), "--h00", str(h00),
                               "--h11", str(h11), "-r", str(self.simulate_replicates),
                               "--seed", seed, "-o", str(paths["simulate"])])
        return paths

    def collect(self, paths: dict[str, Path], calls: Calls) -> dict:
        return {op: (_digest(path), _read_csv(path)) for op, path in paths.items()}

    def fingerprint(self, outputs: dict) -> dict[str, str | None]:
        return {op: digest for op, (digest, _) in outputs.items()}

    def _mc_points(self, outputs: dict):
        """(op, n, f0, h00, h11, replicates) of every Monte Carlo point a pass
        simulated, read from its tables."""
        points = []
        for op in ("figure_c", "simulate"):
            for row in outputs[op][1] or ():
                points.append((op, int(row["n_total"]), float(row["f_minority"]),
                               float(row["h00"]), float(row["h11"]), int(row["replicates"])))
        for row in outputs["figure_d"][1] or ():
            for h00 in self.slope_h_grid:
                points.append(("figure_d", int(row["n_total"]), float(row["f_minority"]),
                               h00, float(row["h11"]), int(row["replicates"])))
        for row in outputs["figure_e"][1] or ():
            if row["f_star_empirical"]:
                mids, _ = checks.bisection_midpoints(*self.detect_bracket, self.detect_tol,
                                                     float(row["f_star_empirical"]))
                for f_mid in mids:
                    for h00 in self.slope_h_grid:
                        points.append(("figure_e", int(row["n_total"]), f_mid, h00,
                                       self.detect_h11, self.panel_replicates))
        return points

    def work(self, outputs: dict) -> tuple[int, float]:
        """Replicates per pass, and their edges from the closed form: the
        tables carry no realised edge counts."""
        replicates = 0
        edges = 0.0
        for _, n, f0, h00, h11, r in self._mc_points(outputs):
            replicates += r
            edges += r * sum(m * p for m, p in checks.pair_classes(n, f0, h00, h11))
        return replicates, edges

    def verify(self, outputs: dict, calls: Calls, stats: checks.StatChecks) -> None:
        for op, (_, rows) in outputs.items():
            if not rows:
                calls.fail(op, "no table rows")
        if calls.failed:
            return
        expected_rows = {"figure_c": 22, "figure_d": 24, "simulate": 1}
        for op, count in expected_rows.items():
            if len(outputs[op][1]) != count:
                calls.fail(op, f"{len(outputs[op][1])} rows, expected {count}")
        for op in ("figure_c", "simulate"):
            for row in outputs[op][1]:
                self._verify_degree_row(op, row, calls, stats)
        for row in outputs["figure_d"][1]:
            self._verify_slope_row(row, calls, stats)
        self._verify_critical_rows(outputs["figure_e"][1], calls)

    def _verify_degree_row(self, op, row, calls, stats) -> None:
        n, f0 = int(row["n_total"]), float(row["f_minority"])
        h00, h11, r = float(row["h00"]), float(row["h11"]), int(row["replicates"])
        for stat, terms in zip(("k0", "k1", "gap"), checks.degree_terms(n, f0, h00, h11)):
            where = f"{stat} at N={n} f0={f0} h00={h00} h11={h11}"
            if not checks.close(float(row[f"{stat}_analytic"]), checks.expectation(terms)):
                calls.fail(op, f"{where}: analytic {row[f'{stat}_analytic']} is not the closed form")
            stats.add(op, f"{where} ({r} replicates)", float(row[f"{stat}_mc_mean"]),
                      checks.mean_over(terms, r))

    def _verify_slope_row(self, row, calls, stats) -> None:
        n, f0, h11 = int(row["n_total"]), float(row["f_minority"]), float(row["h11"])
        r = int(row["replicates"])
        where = f"gap slope at N={n} f0={f0} h11={h11}"
        if float(row["slope_analytic"]) != checks.slope_integer(n, f0):
            calls.fail("figure_d", f"{where}: analytic {row['slope_analytic']} is not the closed form")
        terms = []
        for w, h00 in zip(checks.ols_weights(self.slope_h_grid), self.slope_h_grid):
            gap = checks.degree_terms(n, f0, h00, h11)[2]
            terms += checks.scaled(checks.mean_over(gap, r), w)
        stats.add("figure_d", f"{where} ({r} replicates per h00)", float(row["slope_mc_mean"]),
                  terms)

    def _verify_critical_rows(self, rows, calls) -> None:
        detected = 0
        for row in rows:
            n = int(row["n_total"])
            f_star = checks.critical_size(n)
            if not checks.close(float(row["f_star_analytic"]), f_star):
                calls.fail("figure_e", f"f_star_analytic at N={n} is not (2+N)/(4N)")
            if not row["f_star_empirical"]:
                continue
            detected += 1
            empirical = float(row["f_star_empirical"])
            if abs(empirical - f_star) > self.f_star_tolerance:
                calls.fail("figure_e", f"f_star_empirical {empirical} at N={n} is more than "
                                       f"{self.f_star_tolerance} from {f_star}")
            _, center = checks.bisection_midpoints(*self.detect_bracket, self.detect_tol, empirical)
            if center != empirical or float(row["bracket_width"]) > self.detect_tol:
                calls.fail("figure_e", f"N={n}: {empirical} is not the center of a bisection "
                                       f"bracket over {self.detect_bracket}")
        if detected != 1:
            calls.fail("figure_e", f"{detected} empirical detections, expected 1")


_EDGES_ECHO = re.compile(r"^edges=(\d+) ", re.MULTILINE)
_CHUNK_EDGES = 1 << 16


def _canonical_chunks(graph, seed: int, h00: float, h11: float):
    """The documented edge-list text of ``graph``, formatted here
    independently of the program, in chunks of bounded size."""
    header = f"# N={graph.n_total} n0={graph.n_minority} seed={seed} h00={h00!r} h11={h11!r}\n"
    yield header.encode("utf-8")
    for start in range(0, graph.edge_count, _CHUNK_EDGES):
        rows = graph.edges[start:start + _CHUNK_EDGES].tolist()
        yield "".join(f"{u} {v}\n" for u, v in rows).encode("utf-8")


def _is_canonical(data: bytes, graph, seed: int, h00: float, h11: float) -> bool:
    # chunked, so that the check does not raise the workload's peak memory
    pos = 0
    for expected in _canonical_chunks(graph, seed, h00, h11):
        if data[pos:pos + len(expected)] != expected:
            return False
        pos += len(expected)
    return pos == len(data)


class GraphIo:
    """``generate -o FILE`` at two points, then ``read_edge_list`` on each."""

    name = "graph_io"
    points = ((1000, 0.2, 0.8, 0.8), (2000, 0.2, 0.5, 0.5))

    def __init__(self, lab, seed: int) -> None:
        self.lab = lab
        self.seed = seed

    def _read(self, path: Path):
        with open(path, encoding="utf-8") as handle:
            return self.lab.graphgen.read_edge_list(handle)

    def run(self, calls: Calls, tmp: Path) -> dict:
        paths = [tmp / f"graph{i}.txt" for i in range(len(self.points))]
        for i, ((n, f0, h00, h11), path) in enumerate(zip(self.points, paths)):
            calls.cli(f"generate_{i}", ["generate", "--n", str(n), "--f0", str(f0),
                                        "--h00", str(h00), "--h11", str(h11),
                                        "--seed", str(self.seed), "-o", str(path)])
        read = [calls.lib(f"read_{i}", self._read, path) for i, path in enumerate(paths)]
        return {"paths": paths, "read": read}

    def collect(self, outputs: dict, calls: Calls) -> dict:
        outputs["digests"] = [_digest(path) for path in outputs["paths"]]
        return outputs

    def fingerprint(self, outputs: dict) -> dict[str, str | None]:
        return {f"generate_{i}": d for i, d in enumerate(outputs["digests"])}

    def work(self, outputs: dict) -> tuple[int, float]:
        edges = sum(r[0].edge_count for r in outputs["read"] if r is not None)
        return len(self.points), float(edges)

    def verify(self, outputs: dict, calls: Calls, stats: checks.StatChecks) -> None:
        graphgen = self.lab.graphgen
        for i, ((n, f0, h00, h11), path) in enumerate(zip(self.points, outputs["paths"])):
            op = f"read_{i}"
            if outputs["read"][i] is None:
                continue  # read_edge_list raised, already counted
            graph, meta = outputs["read"][i]
            if meta != {"seed": self.seed, "h00": h00, "h11": h11}:
                calls.fail(op, f"header metadata {meta} does not match the request")
            if (graph.n_total, graph.n_minority) != (n, checks.group_sizes(n, f0)[0]):
                calls.fail(op, f"header sizes ({graph.n_total}, {graph.n_minority}) are wrong")
            echo = _EDGES_ECHO.search(calls.stderr.get(f"generate_{i}", ""))
            if echo is None or int(echo[1]) != graph.edge_count:
                calls.fail(op, f"read {graph.edge_count} edges, generate reported "
                               f"{echo[1] if echo else 'none'}")
            data = path.read_bytes()
            if not _is_canonical(data, graph, self.seed, h00, h11):
                calls.fail(op, "file is not the canonical edge list of the graph it parses to")
            rewritten = path.with_suffix(".rewritten")
            with open(rewritten, "w", encoding="utf-8") as handle:
                graphgen.write_edge_list(handle, graph, seed=meta["seed"], h00=meta["h00"],
                                         h11=meta["h11"])
            if rewritten.read_bytes() != data:
                calls.fail(op, "re-writing the parsed graph is not byte-identical")
            counts = graphgen.pair_class_counts(graph)
            for label, count, (m, p) in zip(("X00", "X11", "Xc"), counts,
                                           checks.pair_classes(n, f0, h00, h11)):
                stats.add(op, f"{label} at N={n} f0={f0} h00={h00} h11={h11}", count,
                          [(1.0, m, p)])


class GraphLarge:
    """One dense-path and one skip-path graph through the library, each
    followed by its group degrees and pair-class counts; no I/O."""

    name = "graph_large"
    points = ((10_000, 0.2, 0.9, 0.1), (30_000, 0.05, 0.9, 0.01))

    def __init__(self, lab, seed: int) -> None:
        self.lab = lab
        self.seed = seed

    def _generate(self, point):
        graphgen = self.lab.graphgen
        return graphgen.generate(graphgen.GenSpec(self.lab.model.ModelParams(*point), self.seed))

    def run(self, calls: Calls, tmp: Path) -> list:
        graphgen = self.lab.graphgen
        results = []
        for i, point in enumerate(self.points):
            graph = calls.lib(f"generate_{i}", self._generate, point)
            if graph is None:
                results.append(None)
                continue
            degrees = calls.lib(f"degrees_{i}", graphgen.empirical_group_degrees, graph)
            counts = calls.lib(f"pair_counts_{i}", graphgen.pair_class_counts, graph)
            results.append((graph.edge_count, degrees, counts))
            del graph  # one large graph alive at a time
        return results

    def collect(self, outputs: list, calls: Calls) -> list:
        return outputs

    def fingerprint(self, outputs: list) -> dict[str, str | None]:
        return {f"generate_{i}": repr(out) for i, out in enumerate(outputs)}

    def work(self, outputs: list) -> tuple[int, float]:
        return len(self.points), float(sum(out[0] for out in outputs if out is not None))

    def verify(self, outputs: list, calls: Calls, stats: checks.StatChecks) -> None:
        for i, (point, out) in enumerate(zip(self.points, outputs)):
            if out is None or out[1] is None or out[2] is None:
                continue  # a call raised, already counted
            edges, (k0, k1), counts = out
            x00, x11, xc = counts
            n, f0 = point[0], point[1]
            n0, n1 = checks.group_sizes(n, f0)
            if x00 + x11 + xc != edges:
                calls.fail(f"pair_counts_{i}", f"counts {counts} do not sum to {edges} edges")
            if not (checks.close(k0 * n0, 2 * x00 + xc) and checks.close(k1 * n1, 2 * x11 + xc)):
                calls.fail(f"degrees_{i}", f"degrees ({k0}, {k1}) disagree with counts {counts}")
            for label, count, (m, p) in zip(("X00", "X11", "Xc"), counts,
                                           checks.pair_classes(*point)):
                stats.add(f"pair_counts_{i}", f"{label} at {point}", count, [(1.0, m, p)])


WORKLOADS = {w.name: w for w in (McPanels, GraphIo, GraphLarge)}
