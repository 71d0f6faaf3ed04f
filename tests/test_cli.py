import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import build_synthetic_dataset, randomize_weights, write_ppm
from fastsal import cli, data_io, kernels, metrics, network, tensor
from fastsal.network import build_fastsal, init_weights, save_weights
from fastsal.tensor import Tensor, sigmoid


def _csv_rows(path):
    return list(csv.DictReader(Path(path).read_text().splitlines()))


SMALL = ["--size", "64x64", "--width", "0.25"]


@pytest.fixture(scope="module")
def weights_file(tmp_path_factory):
    graph = build_fastsal("C", (1, 3, 64, 64), width=0.25)
    path = str(tmp_path_factory.mktemp("w") / "model.fsal")
    save_weights(init_weights(graph, seed=0), path)
    return path


@pytest.fixture(scope="module")
def random_models(tmp_path_factory):
    """Per variant: the paper graph, a store with random BN statistics and
    non-zero biases, and that store's weight file."""
    models = {}
    for variant in ("C", "A"):
        graph = build_fastsal(variant, (1, 3, 64, 64), width=0.25)
        store = randomize_weights(init_weights(graph, seed=0), seed=4)
        path = str(tmp_path_factory.mktemp("w") / f"random{variant}.fsal")
        save_weights(store, path)
        models[variant] = (graph, store, path)
    return models


@pytest.fixture
def image_file(tmp_path):
    rng = np.random.default_rng(0)
    path = str(tmp_path / "img.ppm")
    write_ppm(path, rng.uniform(0, 1, (64, 64, 3)))
    return path


class TestArgHandling:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 1
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "predict" in capsys.readouterr().out

    def test_bad_size_string(self, capsys, weights_file, image_file, tmp_path):
        rc = cli.main(["predict", "--model", weights_file, "--image", image_file,
                       "--out", str(tmp_path / "o.pgm"), "--size", "banana"])
        assert rc == 1
        assert "size" in capsys.readouterr().err

    def test_indivisible_size_rejected(self, capsys, weights_file, image_file,
                                       tmp_path):
        rc = cli.main(["predict", "--model", weights_file, "--image", image_file,
                       "--out", str(tmp_path / "o.pgm"), "--size", "50x64"])
        assert rc == 1
        assert "divisible" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--width", "nan"],
        ["analyze", "--width", "inf"],
        ["analyze", "--width", "-1"],
        ["analyze", "--size", "0x0"],
        ["train", "--batch-size", "0"],
        ["train", "--batch-size", "-2"],
        ["train", "--epochs", "0"],
        ["train", "--max-steps", "0"],
        ["grad-check", "--seed", "-1"],
        ["bench", "--seed", "-1"],
        ["analyze", "--seed", "-3"],
        ["train", "--seed", "-1"],
    ], ids="_".join)
    def test_bad_flag_is_input_error(self, capsys, tmp_path, argv):
        out = tmp_path / "o.fsal"
        if argv[0] == "train":
            manifest = build_synthetic_dataset(str(tmp_path / "d"), n=2, size=(64, 64))
            argv = argv[:1] + SMALL + argv[1:] + ["--manifest", manifest, "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert any(line.startswith("error: ") for line in err.splitlines()), err
        assert not out.exists()

    def test_program_fault_is_runtime_failure(self, capsys, monkeypatch):
        def fault(args):
            raise AttributeError("module 'numpy' has no attribute 'trapz'")

        monkeypatch.setattr(cli, "_cmd_analyze", fault)
        assert cli.main(["analyze"] + SMALL) == 2
        err = capsys.readouterr().err
        assert err == ("internal error: AttributeError: "
                       "module 'numpy' has no attribute 'trapz'\n")


class TestPredict:
    def test_writes_p5_map(self, capsys, weights_file, image_file, tmp_path):
        out = str(tmp_path / "sal.pgm")
        rc = cli.main(["predict", "--model", weights_file, "--image", image_file,
                       "--out", out] + SMALL)
        assert rc == 0
        assert out in capsys.readouterr().out
        sal = data_io._load_resized(out, None)
        assert sal.shape == (64, 64, 1)

    @pytest.mark.parametrize("variant", ["C", "A"])
    def test_map_matches_unrewritten_graph(self, capsys, random_models, image_file,
                                           tmp_path, variant):
        graph, store, path = random_models[variant]
        out = str(tmp_path / "sal.pgm")
        rc = cli.main(["predict", "--model", path, "--image", image_file, "--out", out,
                       "--variant", variant] + SMALL)
        assert rc == 0, capsys.readouterr().err
        ref_path = str(tmp_path / "ref.pgm")
        x = data_io.load_image(image_file, size=(64, 64))
        data_io.save_map(sigmoid(graph.run(store, x)["out"]), ref_path)
        got = data_io._load_resized(out, None) * 255
        ref = data_io._load_resized(ref_path, None) * 255
        assert ref.std() > 10
        assert np.abs(got - ref).max() <= 1

    def test_bad_slot_names_paper_layer(self, capsys, random_models, image_file,
                                        tmp_path):
        # decoder.out is gone from the graph predict runs; the check still
        # reads the paper graph, so the error names the slot in the file
        _, store, _ = random_models["C"]
        bad = network.WeightStore(store.tensors)
        bad.put("decoder.out.w", Tensor(np.zeros((1, 3, 1, 1), np.float32)))
        path = str(tmp_path / "bad.fsal")
        save_weights(bad, path)
        rc = cli.main(["predict", "--model", path, "--image", image_file,
                       "--out", str(tmp_path / "o.pgm")] + SMALL)
        assert rc == 2
        assert "slot 'decoder.out.w' has shape (1, 3, 1, 1)" in capsys.readouterr().err

    def test_missing_image_is_input_error(self, capsys, weights_file, tmp_path):
        rc = cli.main(["predict", "--model", weights_file,
                       "--image", str(tmp_path / "absent.ppm"),
                       "--out", str(tmp_path / "o.pgm")] + SMALL)
        assert rc == 1
        capsys.readouterr()

    def test_corrupt_weights_is_input_error(self, capsys, image_file, tmp_path):
        bad = tmp_path / "bad.fsal"
        bad.write_bytes(b"garbage")
        rc = cli.main(["predict", "--model", str(bad), "--image", image_file,
                       "--out", str(tmp_path / "o.pgm")] + SMALL)
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestPreparedModelMemo:
    """predict and eval --model prepare a model file once per process and
    reuse it while the path, its stat identity, variant, size and width
    stay the same."""

    @pytest.fixture(autouse=True)
    def loads(self, monkeypatch):
        cli._prepared_model.cache_clear()
        calls = []
        real = cli.load_weights

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(cli, "load_weights", counting)
        yield calls
        cli._prepared_model.cache_clear()

    @staticmethod
    def _predict(model, image, out, *flags):
        return cli.main(["predict", "--model", model, "--image", image,
                         "--out", str(out)] + list(flags or SMALL))

    def test_second_predict_reuses_model(self, capsys, loads, random_models,
                                         image_file, tmp_path):
        path = random_models["C"][2]
        assert self._predict(path, image_file, tmp_path / "a.pgm") == 0
        assert self._predict(path, image_file, tmp_path / "b.pgm") == 0
        capsys.readouterr()
        assert loads == [path]
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    def test_rewritten_file_is_reloaded(self, capsys, loads, random_models,
                                        image_file, tmp_path):
        graph, store, _ = random_models["C"]
        path = str(tmp_path / "m.fsal")
        save_weights(store, path)
        assert self._predict(path, image_file, tmp_path / "a.pgm") == 0
        before = os.stat(path)
        save_weights(randomize_weights(store.copy(), seed=9), path)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10 ** 9))
        assert os.stat(path).st_size == before.st_size
        assert self._predict(path, image_file, tmp_path / "b.pgm") == 0
        capsys.readouterr()
        assert loads == [path, path]
        assert (tmp_path / "a.pgm").read_bytes() != (tmp_path / "b.pgm").read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--variant", "A", "--size", "64x64", "--width", "0.25"],
        ["--size", "96x64", "--width", "0.25"],
        ["--size", "64x64", "--width", "0.5"],
    ], ids=["variant", "size", "width"])
    def test_other_variant_size_or_width_misses(self, capsys, loads, weights_file,
                                                image_file, tmp_path, flags):
        assert self._predict(weights_file, image_file, tmp_path / "a.pgm") == 0
        # a C file checked against an A or wider graph fails the slot check
        rc = self._predict(weights_file, image_file, tmp_path / "b.pgm", *flags)
        assert rc == (0 if "96x64" in flags else 2), capsys.readouterr().err
        assert loads == [weights_file, weights_file]

    def test_failures_are_not_cached(self, capsys, loads, weights_file, image_file,
                                     tmp_path):
        bad = str(tmp_path / "bad.fsal")
        Path(bad).write_bytes(b"garbage")
        for _ in range(2):
            assert self._predict(bad, image_file, tmp_path / "o.pgm") == 1
            assert "error: " in capsys.readouterr().err
        assert self._predict(weights_file, image_file, tmp_path / "o.pgm") == 0
        capsys.readouterr()
        assert loads == [bad, bad, weights_file]

    def test_eval_reuses_model(self, capsys, loads, random_models, tmp_path):
        path = random_models["C"][2]
        manifest = build_synthetic_dataset(str(tmp_path / "d"), n=2, size=(64, 64))
        outs = [str(tmp_path / f"m{i}.csv") for i in range(2)]
        for out in outs:
            assert cli.main(["eval", "--manifest", manifest, "--model", path,
                             "--csv", out] + SMALL) == 0
        capsys.readouterr()
        assert loads == [path]
        assert Path(outs[0]).read_text() == Path(outs[1]).read_text()


def _glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION") is not None
    except (AttributeError, OSError, ValueError):
        return False


SRC = str(Path(__file__).resolve().parent.parent / "src")

# One process, 4 warm-up and 12 measured predict requests; prints the minor
# page faults of each measured request. -E keeps PYTHONMALLOC and the like
# from the parent out of the child.
STEADY_FAULTS_SCRIPT = """
import contextlib, io, os, resource, sys, tempfile
sys.path.insert(0, sys.argv[1])
import numpy as np
from fastsal import cli, network
with tempfile.TemporaryDirectory() as work:
    graph = network.build_fastsal("C", (1, 3, 192, 256))
    model = os.path.join(work, "m.fsal")
    network.save_weights(network.init_weights(graph, seed=0), model)
    rng = np.random.default_rng(0)
    images = []
    for magic, (h, w, c) in (("P6", (480, 640, 3)), ("P5", (192, 256, 1))):
        path = os.path.join(work, "image." + magic)
        with open(path, "wb") as f:
            f.write(f"{magic}\\n{w} {h}\\n255\\n".encode())
            f.write(rng.integers(0, 256, (h, w, c), dtype=np.uint8).tobytes())
        images.append(path)
    faults = []
    for i in range(16):
        argv = ["predict", "--variant", "C", "--model", model, "--image", images[i % 2],
                "--out", os.path.join(work, f"out{i}.pgm")]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults[4:])
"""


@pytest.mark.skipif(not _glibc(), reason="needs glibc's mallopt")
def test_steady_predict_requests_do_not_page_fault():
    """cli.main keeps freed pages in the heap, so after warm-up a request
    reuses the previous request's memory instead of faulting it in again:
    about 870 faults per request without the allocator setting, 0-10 with
    it. The bound is on the mean, because the heap may still grow once by
    an activation's size (384 pages seen) when its free space is fragmented."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-E", "-c", STEADY_FAULTS_SCRIPT, SRC],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = [int(v) for v in proc.stdout.split()]
    assert len(faults) == 12
    assert sum(faults) <= 64 * len(faults), faults


class TestAnalyze:
    def test_stdout_csv_and_file(self, capsys, tmp_path):
        out = str(tmp_path / "report.csv")
        rc = cli.main(["analyze", "--variant", "C", "--csv", out] + SMALL)
        assert rc == 0
        printed = capsys.readouterr().out
        assert "TOTAL" in printed
        rows = _csv_rows(out)
        assert rows[-1]["name"] == "TOTAL"

    def test_table_and_convention(self, capsys):
        rc = cli.main(["analyze", "--variant", "A", "--table",
                       "--convention"] + SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        assert "MAC=2FLOPs" in out
        assert "TOTAL" in out


class TestBench:
    def test_runs_and_writes_csv(self, capsys, tmp_path):
        out = str(tmp_path / "bench.csv")
        rc = cli.main(["bench", "--iters", "2", "--warmup", "0",
                       "--csv", out] + SMALL)
        assert rc == 0
        assert "fps=" in capsys.readouterr().out
        rows = _csv_rows(out)
        assert len(rows) == 1
        assert int(rows[0]["iterations"]) == 2


class TestEval:
    def test_metrics_csv(self, capsys, tmp_path):
        manifest = build_synthetic_dataset(str(tmp_path / "d"), n=2,
                                           size=(64, 64))
        out = str(tmp_path / "metrics.csv")
        rc = cli.main(["eval", "--manifest", manifest, "--csv", out] + SMALL)
        assert rc == 0
        capsys.readouterr()
        rows = _csv_rows(out)
        assert len(rows) == 2
        for row in rows:
            for col in ("auc", "nss", "cc", "kldiv", "sim"):
                assert np.isfinite(float(row[col]))

    def test_nss_cc_match_unrewritten_graph(self, capsys, random_models, tmp_path):
        graph, store, path = random_models["C"]
        manifest = build_synthetic_dataset(str(tmp_path / "d"), n=2,
                                           size=(64, 64))
        out = str(tmp_path / "metrics.csv")
        rc = cli.main(["eval", "--manifest", manifest, "--model", path,
                       "--csv", out] + SMALL)
        assert rc == 0, capsys.readouterr().err
        rows = _csv_rows(out)
        for rec, row in zip(data_io.load_manifest(manifest), rows, strict=True):
            x = data_io.load_image(rec.image, size=(64, 64))
            pred = graph.run(store, x)["out"].data[0, 0]
            ref = metrics.evaluate(
                pred, gt_density=data_io.load_map(rec.gt, size=(64, 64)).data[0, 0],
                fixations=data_io.load_fixations(rec.fix, bounds=(64, 64)))
            assert abs(float(row["nss"]) - ref.nss) <= 1e-5
            assert abs(float(row["cc"]) - ref.cc) <= 1e-5

    def test_bad_manifest_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "m.jsonl"
        bad.write_text("not json\n")
        rc = cli.main(["eval", "--manifest", str(bad)] + SMALL)
        assert rc == 1
        capsys.readouterr()

    def test_undecodable_fixation_file_is_input_error(self, capsys, tmp_path):
        manifest = build_synthetic_dataset(str(tmp_path / "d"), n=1, size=(64, 64))
        (tmp_path / "d" / "fix00.txt").write_bytes(b"1 2\n\xff 3\n")
        assert cli.main(["eval", "--manifest", manifest] + SMALL) == 1
        assert "fix00.txt: byte 0 of the line is not valid UTF-8" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_undecodable_manifest_is_input_error(self, capsys, tmp_path, command):
        bad = tmp_path / "m.jsonl"
        bad.write_bytes(b'{"image": "\xff.ppm"}\n')
        argv = [command, "--manifest", str(bad)] + SMALL
        if command == "train":
            argv += ["--out", str(tmp_path / "o.fsal")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: byte 11 ")


class TestTrain:
    def test_trains_and_saves(self, capsys, tmp_path):
        manifest = build_synthetic_dataset(str(tmp_path / "d"), n=2,
                                           size=(64, 64))
        out = str(tmp_path / "trained.fsal")
        log = str(tmp_path / "log.csv")
        rc = cli.main(["train", "--manifest", manifest, "--loss", "salgan",
                       "--epochs", "1", "--batch-size", "2", "--max-steps", "1",
                       "--out", out, "--log", log] + SMALL)
        assert rc == 0
        assert "loss=" in capsys.readouterr().out
        from fastsal.network import load_weights
        load_weights(out)
        assert len(_csv_rows(log)) == 1

    def test_invalid_loss_config_is_input_error(self, capsys, tmp_path):
        manifest = build_synthetic_dataset(str(tmp_path / "d"), n=2,
                                           size=(64, 64))
        rc = cli.main(["train", "--manifest", manifest, "--loss", "salgan",
                       "--gt", "off", "--teacher", "off",
                       "--out", str(tmp_path / "o.fsal")] + SMALL)
        assert rc == 1
        capsys.readouterr()


class TestGradCheckCommand:
    def test_all_cases_pass(self, capsys):
        rc = cli.main(["grad-check", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("pass") >= 6
        assert "FAIL" not in out

    def test_reports_each_case(self, capsys):
        cli.main(["grad-check"])
        out = capsys.readouterr().out
        for name in ("conv2d", "sigmoid", "softmax_spatial", "bilinear_resize",
                     "salgan_loss", "deepgaze_loss"):
            assert name in out


class TestTracedNames:
    def test_patched_names_are_module_level(self):
        # the benchmark tracer swaps these through owner.__dict__[name], so
        # each must stay a name bound in that module or class itself
        for owner, names in [(cli, ["build_fastsal", "load_weights", "check_weights",
                                    "sigmoid", "main"]),
                             (network, ["build_fastsal"]),
                             (network.NetworkGraph, ["run"]),
                             (kernels, ["conv2d", "apply_op", "avg_pool2d"]),
                             (tensor, ["apply_op", "relu6", "add"])]:
            for name in names:
                assert callable(owner.__dict__.get(name)), f"{owner.__name__}.{name}"

    def test_depthwise_fwd_and_bwd_go_through_kernels_apply_op(self, monkeypatch):
        # the tracer times backward closures by wrapping kernels.apply_op as
        # conv2d looks it up when it runs; a depthwise path that bypassed it
        # would read 0 ms of backward
        calls = []
        real = kernels.apply_op

        def counting(name, inputs, out, backward_fn):
            calls.append(name)

            def bwd(g):
                calls.append(name + ".bwd")
                return backward_fn(g)

            return real(name, inputs, out, bwd)

        monkeypatch.setattr(kernels, "apply_op", counting)
        x = Tensor(np.ones((1, 4, 6, 6), np.float32), requires_grad=True)
        w = Tensor(np.ones((4, 1, 3, 3), np.float32), requires_grad=True)
        with tensor.Tape() as tape:
            loss = kernels.conv2d(x, w, stride=2, padding=1, groups=4).sum()
        tape.gradients(loss, [x, w])
        assert calls == ["conv2d", "conv2d.bwd"]
