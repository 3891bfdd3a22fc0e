"""Self-tests of the benchmark itself (not of padicgabor).

Run from the repository root:  python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layertrace import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, make_ops, write_configs  # noqa: E402

sys.path.insert(0, str(run.SRC))
import padicgabor  # noqa: E402
from padicgabor import cli  # noqa: E402


def _tamper(key_path, change):
    """Rewrite one JSON field of an output; the result must fail its oracle."""
    def tamper(out: str) -> str:
        doc = json.loads(out)
        *head, last = key_path
        node = doc
        for key in head:
            node = node[key]
        node[last] = change(node[last])
        return json.dumps(doc)
    return tamper


# (workload, op name prefix, tampering that mis-values the output)
CASES = (
    ("paper-verify", "verify", lambda out: out.replace("15/15 checks", "14/15 checks")),
    ("tf-analysis", "stft-p3-carry", _tamper(("values", 5, 0), lambda v: v + 0.5)),
    ("tf-analysis", "norms-p2-modular-256", _tamper(("l2",), lambda v: v * 1.001)),
    ("frame-diagnostics", "frame-lattice", _tamper(("c",), lambda v: v * (1 + 1e-6))),
    ("frame-diagnostics", "frame-random-p2-carry", _tamper(("rank",), lambda v: v - 1)),
    ("density-counting", "density-phase", _tamper(("profile", "rows", 2, "upper_ratio"),
                                                  lambda v: "3/2")),
)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = run.WORK / "selftest"
        cls.workdir.mkdir(parents=True, exist_ok=True)
        cls.ops = {}
        for workload, prefix, tamper in CASES:
            op = next(o for o in make_ops(workload, 7) if o.name.startswith(prefix))
            cls.ops[prefix] = (op, tamper)
        write_configs([op for op, _ in cls.ops.values()], cls.workdir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir)

    def test_oracles_accept_genuine_and_reject_mis_valued_output(self):
        for prefix, (op, tamper) in self.ops.items():
            with self.subTest(op=op.name):
                _, _, rc, out = run.run_op(cli, op.args())
                self.assertEqual(rc, 0)
                self.assertIsNone(run.judge(op, rc, out, {}))
                self.assertIsNotNone(run.judge(op, 0, tamper(out), {}))

    def test_tampered_output_counts_as_failed_op(self):
        op, tamper = self.ops["norms-p2-modular-256"]
        _, _, _, genuine = run.run_op(cli, op.args())
        real_main = cli.main

        def tampered_main(argv):
            sys.stdout.write(tamper(genuine))
            return 0

        cli.main = tampered_main
        loop = run.Loop()
        try:
            run.run_pass([op], loop, {})
        finally:
            cli.main = real_main
        self.assertEqual((loop.ops, len(loop.failures)), (1, 1))

    def test_nonzero_exit_and_changed_output_count_as_failed(self):
        op, _ = self.ops["norms-p2-modular-256"]
        _, _, rc, out = run.run_op(cli, ["norms", "--config", str(self.workdir / "missing.json")])
        self.assertIsNotNone(run.judge(op, rc, out, {}))
        _, _, rc, out = run.run_op(cli, op.args())
        verdicts = {}
        self.assertIsNone(run.judge(op, rc, out, verdicts))
        self.assertIsNone(run.judge(op, rc, out, verdicts))
        self.assertIsNotNone(run.judge(op, rc, out + " ", verdicts))

    def test_trace_restores_every_patched_attribute(self):
        def snapshot():
            seen = {}
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] != "padicgabor":
                    continue
                for attr, value in vars(mod).items():
                    seen[(name, attr)] = value
                    if isinstance(value, type) and value.__module__ == name:
                        for cattr, cvalue in vars(value).items():
                            seen[(name, attr, cattr)] = cvalue
            return seen

        before = snapshot()
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(padicgabor.verify.stft, before[("padicgabor.verify", "stft")])
            self.assertIsNot(padicgabor.gabor.modulate, before[("padicgabor.gabor", "modulate")])
            self.assertIsNot(padicgabor.model.ModelSpace.char_values,
                             before[("padicgabor.model", "ModelSpace", "char_values")])
        finally:
            tracer.uninstall()
        run.run_pass([self.ops["frame-lattice"][0]], run.Loop(), {}, tracer)
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_trace_reports_every_metric_and_span_share(self):
        tracer = Tracer()
        ops = [self.ops[p][0] for p in ("norms-p2-modular-256", "frame-random-p2-carry")]
        loop = run.Loop()
        run.run_pass(ops, loop, {}, tracer)
        self.assertEqual(loop.failures, [])
        metrics = tracer.metrics([1.0], [1.1])
        self.assertEqual(list(metrics), [name for name, _, _ in PER_LAYER])
        share = metrics["trace.layer_span_share"]["value"]
        self.assertTrue(0.0 < share <= 1.0, share)
        self.assertGreater(metrics["linalg.hermitian_eigs.calls"]["value"], 0)
        self.assertAlmostEqual(metrics["trace.overhead_ratio"]["value"], 0.1)

    def test_seed_fixes_configs_byte_for_byte(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                def inputs(seed):
                    return [(op.argv, op.config_bytes()) for op in make_ops(workload, seed)]
                self.assertEqual(inputs(3), inputs(3))
                self.assertNotEqual(inputs(3), inputs(4))

    def test_benchmark_json_names_what_the_runs_report(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(PER_LAYER))

    def test_exits_nonzero_without_the_program(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper-verify",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
