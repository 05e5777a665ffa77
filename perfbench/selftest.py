"""Self-test of the answer checks: real outputs pass, perturbed outputs fail.

    python3 perfbench/selftest.py

For each workload it runs one round through the program, confirms that the
check accepts the program's answers, then perturbs one answer (one element
moved by 1% of the answer's largest magnitude, one NaN, a wrong shape) and
confirms that the check rejects each.  Exits non-zero on any surprise.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from concurrent.futures import Future
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402


def perturbations(out: np.ndarray):
    nudged = out.copy()
    flat = nudged.reshape(-1)
    i = int(np.argmax(np.abs(flat)))
    flat[i] *= np.float32(1.01)
    nan = out.copy()
    nan.reshape(-1)[0] = np.nan
    yield "nudged", nudged
    yield "nan", nan
    yield "shape", out[:-1]


def main() -> int:
    (HERE / ".work").mkdir(exist_ok=True)
    private = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE / ".work"))
    os.environ.update({"REPRO_KERNEL_CACHE": str(private / "kernels"),
                       "REPRO_TUNING_RECORDS": str(private / "tuning"), "TMPDIR": str(private)})
    import workloads

    failures = []

    def expect(label: str, got: bool, want: bool) -> None:
        print(f"{label:40s} {'accepted' if got else 'rejected'}")
        if got != want:
            failures.append(label)

    try:
        eager = workloads.EagerOps(0)
        eager.setup()
        refs = eager.refs[0]
        outs = eager._calls(eager.pool[0])
        expect("eager-ops: program output", eager.check(refs, outs), True)
        for index in (0, 2):  # an SpMM and an SDDMM
            for kind, bad in perturbations(outs[index]):
                changed = list(outs)
                changed[index] = bad
                expect(f"eager-ops: call {index} {kind}", eager.check(refs, changed), False)

        model = workloads.ModelForward(0)
        model.setup()
        x = model._inputs()
        outs = model._calls(x)
        expect("model-forward: program output", model.check(x, outs), True)
        for index, name in enumerate(("graphsage", "rgcn", "attention", "sparse_conv")):
            for kind, bad in perturbations(outs[index]):
                changed = list(outs)
                changed[index] = bad
                expect(f"model-forward: {name} {kind}", model.check(x, changed), False)

        serve = workloads.ServeChurn(0)
        serve.setup()
        _, ops = serve.round()
        expect("serve-churn: every answer", all(op.correct for op in ops), True)
        pair = serve.PAIRS[0]
        pools = {p: [serve._features(p)] for p in serve.PAIRS}
        expected = workloads._Expected(serve, pools)
        _, answer = expected.answer(pair, 0, 0)
        for kind, bad in [("exact", answer)] + list(perturbations(answer)):
            future = Future()
            future.set_result(bad)
            op = expected.check(pair, 0, 0, future, 0.0, {future: 0.0})
            expect(f"serve-churn: {kind}", op.correct and not op.failed, kind == "exact")
        serve.close()
    finally:
        shutil.rmtree(private, ignore_errors=True)
    print("self-test", "FAILED: " + ", ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
