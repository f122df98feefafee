"""Command-line surface: flags, formats, exit codes, cache discipline."""

import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import designcount
from designcount import cli
from designcount.cli import main
from designcount.core import DesignError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(*argv, timeout=120):
    """Run this interpreter in a new process with this package importable."""
    src = str(pathlib.Path(designcount.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=timeout)


class TestCount:
    def test_sts7_json(self, capsys):
        code, out, _ = run(capsys, "count", "--object", "sts", "--n", "7",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "sts" and doc["n"] == 7 and doc["count"] == "30"
        assert doc["complete"] is True

    def test_counts_print_as_decimal_strings(self, capsys):
        code, out, _ = run(capsys, "count", "--object", "1f", "--n", "8",
                           "--labeled", "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == "31449600"

    def test_odd_1f_is_zero(self, capsys):
        code, out, _ = run(capsys, "count", "--object", "1f", "--n", "3",
                           "--format", "json")
        assert code == 0 and json.loads(out)["count"] == "0"

    def test_budget_exhaustion_exit_2(self, capsys):
        code, out, _ = run(capsys, "count", "--object", "sts", "--n", "13",
                           "--node-budget", "1000", "--format", "json")
        assert code == 2
        assert json.loads(out)["complete"] is False

    @pytest.mark.parametrize("obj, n", [("latin", 100), ("1f", 100), ("sts", 151)])
    def test_budgeted_count_at_large_n_returns_in_seconds(self, obj, n):
        # the cycle types are generated as the count takes them, so a spent
        # budget stops it before it lists the partitions of about n/2 or n
        proc = fresh_python("-m", "designcount", "count", "--object", obj, "--n", str(n),
                            "--node-budget", "1000", "--format", "json", timeout=20)
        assert proc.returncode == 2
        doc = json.loads(proc.stdout)
        assert (doc["complete"], doc["nodes"], doc["count"]) == (False, 1000, "0")

    @pytest.mark.parametrize("module", ["designcount", "designcount.cli"])
    def test_python_m_count(self, module):
        # __main__.py, and cli.py run as a script
        proc = fresh_python("-m", module, "count", "--object", "sts", "--n", "7")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "sts n=7: 30 [exact, 2 nodes]\n", "")

    def test_budget_equal_to_the_node_total_is_complete(self, capsys):
        code, out, _ = run(capsys, "count", "--object", "sts", "--n", "9",
                           "--node-budget", "16")
        assert (code, out) == (0, "sts n=9: 840 [exact, 16 nodes]\n")

    def test_nonpositive_budget_exit_1(self, capsys):
        for budget in ("0", "-3"):
            code, out, err = run(capsys, "count", "--object", "latin", "--n", "5",
                                 "--node-budget", budget)
            assert code == 1 and out == ""
            assert err == f"error: node budget must be >= 1, got {budget}\n"

    def test_labeled_outside_1f_exit_1(self, capsys):
        for obj in ("sts", "latin"):
            code, out, err = run(capsys, "count", "--object", obj, "--n", "3",
                                 "--labeled", "--format", "json")
            assert code == 1 and out == ""
            assert err == f"error: --labeled applies to --object 1f only, got {obj}\n"

    def test_latin_6_from_reduced_squares(self, capsys):
        code, out, _ = run(capsys, "count", "--object", "latin", "--n", "6",
                           "--format", "json")
        assert code == 0
        assert out == ('{"complete":true,"count":"812851200","kind":"latin",'
                       '"labeled":null,"n":6,"nodes":13036}\n')

    def test_parser_is_built_once(self, capsys):
        # main reuses one parser, and a refused command leaves it as it was
        assert cli.build_parser() is cli.build_parser()
        assert run(capsys, "count", "--object", "cube", "--n", "3")[0] == 1
        assert run(capsys, "count", "--object", "sts", "--n", "7") == (
            0, "sts n=7: 30 [exact, 2 nodes]\n", "")

    def test_import_starts_no_process_pool_machinery(self):
        # map_tasks imports the process pool only when it starts one
        proc = fresh_python("-c", "import sys, designcount.cli; print(sorted(m for m in "
                            "('concurrent.futures', 'multiprocessing') if m in sys.modules))")
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_count_and_bounds_load_neither_numpy_nor_entropylab(self):
        # numpy and the reveal kernel are imported by the functions and
        # subcommands that use them
        script = (
            "import sys\n"
            "from designcount import cli\n"
            "from designcount.bounds import BOUND_NAMES\n"
            "def loaded():\n"
            "    return [m for m in ('numpy', 'designcount.entropylab') if m in sys.modules]\n"
            "print(loaded())\n"
            "cli.main(['count', '--object', 'latin', '--n', '5', '--jobs', '2'])\n"
            "cli.main(['bounds', '--n', '16', '--list', ','.join(BOUND_NAMES)])\n"
            "print(loaded())\n")
        proc = fresh_python("-c", script)
        lines = proc.stdout.splitlines()
        assert proc.returncode == 0, proc.stderr
        assert lines[0] == lines[-1] == "[]"
        assert lines[1] == "latin n=5: 161280 [exact, 141 nodes]"

    def test_verify_runs_in_a_fresh_process(self):
        # entropy does in test_python_m_entry_point; this seed once drew an
        # n-law cell low enough to fail on its sample SE (test_lemmas)
        proc = fresh_python("-m", "designcount", "verify", "--lemma", "n-law", "--variant",
                            "sts", "--n", "9", "--mode", "mc", "--samples", "2000",
                            "--seed", "414706468")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(",True\n") == 112

    def test_bad_flag_exit_1(self, capsys):
        code, _, err = run(capsys, "count", "--object", "cube", "--n", "3")
        assert code == 1 and "error" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "count", "--object", "latin", "--n", "3",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("kind,n,") and ",12," in lines[1]


class TestBounds:
    def test_wilson_pair_brackets_exact_count(self, capsys):
        import math
        code, out, _ = run(capsys, "bounds", "--n", "9",
                           "--list", "wilson-lower,wilson-upper", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["bounds"]["wilson-lower"] <= math.log(840) <= doc["bounds"]["wilson-upper"]

    def test_peel_text(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "6", "--list", "peel")
        assert code == 0 and "8.087" in out

    def test_cameron_surfaced_error(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "6", "--list", "cameron-lower")
        assert code == 1 and "4" in err

    def test_unknown_bound(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "6", "--list", "minc")
        assert code == 1 and "unknown bound" in err

    def test_cameron_counts_no_base_for_a_refused_n(self, capsys, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("counted a base for a bound that cannot be evaluated")
        monkeypatch.setattr("designcount.enumeration.count_latin_squares", no_count)
        monkeypatch.setattr("designcount.enumeration.count_one_factorizations", no_count)
        code, out, err = run(capsys, "bounds", "--n", "10", "--list", "cameron-lower")
        assert (code, out, err) == (1, "", "error: recursive bound needs 4 | n, got 10\n")

    @pytest.mark.parametrize("n, names, message", [
        ("0", "conjecture-6", "n must be >= 1, got 0"),
        ("-4", "conjecture-1", "n must be >= 1, got -4"),
        ("0", "wilson-lower", "n must be >= 1, got 0"),
        ("0", "vdw-latin-lower", "n must be >= 1, got 0"),
        ("-3", "kahn-lovasz", "n must be >= 2, got -3"),
        ("0", "kahn-lovasz", "n must be >= 2, got 0"),
        ("1", "kahn-lovasz", "n must be >= 2, got 1"),
        (str(10**400), "wilson-upper", "|n| must be below 10^150"),
        (str(-10**400), "conjecture-6", "|n| must be below 10^150"),
        (str(13 * 10**153), "conjecture-6", "|n| must be below 10^150"),
    ])
    def test_bad_n_is_one_error_line(self, capsys, n, names, message):
        code, out, err = run(capsys, "bounds", "--n", n, "--list", names)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("name", ["kahn-lovasz", "peel", "vdw-latin-lower",
                                      "cameron-lower"])
    def test_summed_bounds_refuse_huge_n(self, capsys, name):
        # kahn-lovasz used to build an n-entry degree list: a MemoryError traceback
        code, out, err = run(capsys, "bounds", "--n", str(10**12), "--list", name)
        assert (code, out) == (1, "")
        assert err == (f"error: {name} sums up to n log terms; "
                       f"n must be <= 10^7, got {10**12}\n")

    def test_cameron_12_takes_exact_latin_6(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "12", "--list", "cameron-lower",
                           "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["notes"]["cameron-lower"] == "L(6) exact; F(6) exact"
        assert doc["bounds"]["cameron-lower"] == math.log(812_851_200) + 2 * math.log(6)

    def test_largest_n_gives_finite_logs(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", str(10**150 - 1), "--format", "json",
                           "--list", "wilson-lower,wilson-upper,conjecture-6,conjecture-1")
        assert code == 0 and all(map(math.isfinite, json.loads(out)["bounds"].values()))

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "8",
                           "--list", "peel,cameron-lower", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "name,n,log-value,magnitude"

    @pytest.mark.parametrize("names, message", [
        (",", "--list needs at least one bound name"),
        ("conjecture-x", "unknown bound 'conjecture-x'"),
    ])
    def test_a_refused_list_is_one_error_line(self, capsys, names, message):
        code, out, err = run(capsys, "bounds", "--n", "16", "--list", names)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("name", ["conjecture-06", "conjecture-+6", "conjecture-\u0666",
                                      "conjecture-3"])
    def test_an_alias_of_a_bound_is_one_error_line(self, capsys, name):
        code, out, err = run(capsys, "bounds", "--n", "16", "--list", f"conjecture-6,{name}")
        assert (code, out, err) == (1, "", f"error: unknown bound {name!r}\n")

    def test_cameron_40_bottoms_out_at_the_trivial_f(self, capsys):
        # no exact base at m = 20, and the recursion's m = 10 is not a multiple of 4
        code, out, _ = run(capsys, "bounds", "--n", "40", "--list", "cameron-lower")
        assert code == 0
        assert out.endswith("(L(20) vdW bound; F(20) recursive "
                            "[L(10) vdW bound; F(10) >= 1 trivial])\n")


class TestVerify:
    def test_dist_p_exact_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "dist-p", "--variant", "1f",
                           "--n", "6", "--mode", "exact")
        assert code == 0
        assert all(line.endswith("True") for line in out.splitlines()[1:])

    def test_exp_m_2_exact_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "exp-m-2", "--variant", "sts",
                           "--n", "7", "--mode", "exact")
        assert code == 0

    def test_exp_m_reports_printed_deviation_but_exits_0(self, capsys):
        code, out, err = run(capsys, "verify", "--lemma", "exp-m", "--variant", "1f",
                             "--n", "6", "--mode", "exact")
        assert code == 0
        assert "exp-m[printed]" in out and "False" in out
        assert "printed denominator" in err

    def test_too_large_exact_exit_1(self, capsys):
        code, _, err = run(capsys, "verify", "--lemma", "dist-p", "--variant", "1f",
                           "--n", "12", "--mode", "exact")
        assert code == 1 and "exact mode gated" in err

    def test_n_law_reports_its_gate(self, capsys):
        code, out, err = run(capsys, "verify", "--lemma", "n-law", "--variant", "sts",
                             "--n", "13", "--mode", "exact")
        assert code == 1 and out == ""
        assert err == "error: sts pool gated at n <= 9, got 13\n"

    @pytest.mark.parametrize("lemma,verdicts", [("n-law", 112), ("exp-m-2", 21)])
    def test_sts9_exact_passes(self, capsys, lemma, verdicts):
        code, out, err = run(capsys, "verify", "--lemma", lemma, "--variant", "sts",
                             "--n", "9", "--mode", "exact", "--format", "json")
        docs = json.loads(out)
        assert code == 0 and err == ""
        assert len(docs) == verdicts and all(d["pass"] for d in docs)

    def test_q_law_rejects_the_1f_variant(self, capsys):
        code, out, err = run(capsys, "verify", "--lemma", "q-law", "--variant", "1f",
                             "--n", "7", "--mode", "exact")
        assert code == 1 and out == ""
        assert err == "error: the star position law applies to the sts variant\n"

    def test_mc_too_few_samples_exit_1(self, capsys):
        for samples in ("0", "1"):
            code, out, err = run(capsys, "verify", "--lemma", "dist-p", "--variant", "1f",
                                 "--n", "6", "--mode", "mc", "--samples", samples)
            assert code == 1 and out == ""
            assert err == f"error: mc mode needs at least 2 samples, got {samples}\n"

    def test_no_verdict_exit_1(self, capsys):
        for lemma, variant, n in (("dist-p", "1f", "1"), ("dist-p-2", "sts", "2"),
                                  ("exp-m-2", "sts", "1")):
            code, out, err = run(capsys, "verify", "--lemma", lemma, "--variant", variant,
                                 "--n", n, "--mode", "exact")
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_n_law_mc_names_an_unsampled_case(self, capsys):
        # two star orders rarely put {i,j} at q before {i,k}; the case is
        # reported, not skipped
        code, out, err = run(capsys, "verify", "--lemma", "n-law", "--variant", "sts",
                             "--n", "9", "--mode", "mc", "--samples", "2")
        assert code == 1 and out == ""
        assert err == "error: no sampled order satisfies i=5, j=6, l=7, m=8, q=1\n"

    @pytest.mark.parametrize("lemma,variant,n,samples,seed,line", [
        ("dist-p-2", "sts", 31, 20000, 3,
         "dist-p-2,sts,31,p=29,1,4495,0.0,,0.0,True"),
        ("dist-p", "1f", 62, 4096, 1,
         "dist-p,1f,62,p=51,11,1891,0.0010141987829614604,,0.0007167830799247282,True")])
    def test_a_share_drawn_low_passes_on_its_bernoulli_se(self, capsys, lemma, variant, n,
                                                          samples, seed, line):
        # a cell that draws nothing, or too few, has a sample SE far below the
        # share's; the gate is at least sqrt(f(1-f)/total), the reported SE the sample's
        code, out, err = run(capsys, "verify", "--lemma", lemma, "--variant", variant,
                             "--n", str(n), "--mode", "mc", "--samples", str(samples),
                             "--seed", str(seed))
        assert (code, err) == (0, "") and line in out.splitlines()

    @pytest.mark.parametrize("lemma,variant,n,message", [
        ("dist-p", "1f", 10**9, "reveal masks hold at most 63 points, got n=1000000000"),
        ("q-law", "sts", 62,
         "star size m=62 needs 63 points; reveal masks hold at most 62 points, got n=63")])
    def test_mc_position_law_past_the_kernel_exit_1(self, capsys, lemma, variant, n, message):
        # refused before any order is drawn: one line, not a MemoryError
        code, out, err = run(capsys, "verify", "--lemma", lemma, "--variant", variant,
                             "--n", str(n), "--mode", "mc")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("exp-m", "sts", "7", "exact"), "exp-m applies to the 1f variant"),
        # neither of the two sampled orders puts item 0 before item 1
        (("dist-p", "1f", "2", "mc", "--samples", "2", "--seed", "5"),
         "no sampled order puts item 0 first among 2"),
    ])
    def test_a_refusal_is_one_error_line(self, capsys, argv, message):
        lemma, variant, n, mode, *rest = argv
        code, out, err = run(capsys, "verify", "--lemma", lemma, "--variant", variant,
                             "--n", n, "--mode", mode, *rest)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_mc_csv_has_plain_floats(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "dist-p-2", "--variant", "sts",
                           "--n", "7", "--mode", "mc", "--samples", "5000")
        assert code == 0 and "np." not in out

    def test_mc_mode_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "q-law", "--variant", "sts",
                           "--n", "5", "--mode", "mc", "--samples", "20000",
                           "--seed", "1", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert all(d["pass"] for d in docs)


class TestEntropy:
    def test_exact_1f4(self, capsys):
        import math
        code, out, _ = run(capsys, "entropy", "--variant", "1f", "--n", "4",
                           "--samples", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is True
        assert doc["verdict"] == "PASS"
        assert abs(doc["estimate"] - math.log(6)) < 1e-9

    def test_mc_pass_and_byte_identical(self, capsys):
        args = ("entropy", "--variant", "sts", "--n", "7",
                "--samples", "4000", "--seed", "42")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2
        code3, out3, _ = run(capsys, *args, "--jobs", "2")
        assert code3 == 0 and out3 == out1

    def test_constant_reveal_sum_passes(self, capsys):
        # the reveal sum is constant here, so se = 0 and the mean may land
        # an ulp below the log-count
        for variant, n in (("1f", "4"), ("sts", "7")):
            for seed in range(5):
                code, out, _ = run(capsys, "entropy", "--variant", variant, "--n", n,
                                   "--samples", "1000", "--seed", str(seed))
                assert code == 0 and json.loads(out)["verdict"] == "PASS"

    @pytest.mark.parametrize("without_counts", [False, True])
    @pytest.mark.parametrize("variant, n, samples, digest", [
        ("sts", "7", "2000", "c3d68bc31ef988350ff849d325d449ce81a21b2a6fbd763d0d09b9d2c1892d53"),
        ("sts", "9", "2000", "e85b125b369a5243d835cd7cf89b0d08f1f2e7ca314ed233417c35486049e61c"),
        ("1f", "4", "0", "e4ef000fe86165385753236262256acd7ca9d543f577de6cc0d56a9663d62987"),
        ("1f", "6", "2000", "69b787fb15f42729a6094f6cfb6f2039ffbb3a5abc0e97ff03e3a7297d9666d7"),
    ])
    def test_log_count_comes_from_the_pool(self, capsys, monkeypatch, variant, n, samples,
                                           digest, without_counts):
        # the verdict's log-count is the size of the sampled pool; no search reruns
        if without_counts:
            def no_count(*args, **kwargs):
                raise AssertionError("entropy ran a counting search")
            for name in ("count_triple_systems", "count_one_factorizations",
                         "count_latin_squares"):
                monkeypatch.setattr(f"designcount.enumeration.{name}", no_count)
        code, out, _ = run(capsys, "entropy", "--variant", variant, "--n", n,
                           "--samples", samples, "--seed", "11")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_empty_pool_exit_1(self, capsys):
        code, _, err = run(capsys, "entropy", "--variant", "sts", "--n", "5",
                           "--samples", "100")
        assert code == 1 and "error" in err

    def test_exact_above_the_cap_exit_1(self, capsys):
        code, out, err = run(capsys, "entropy", "--variant", "sts", "--n", "9",
                             "--samples", "0")
        assert code == 1 and out == ""
        assert err == "error: exact evaluation needs 304819200 reveals, above the cap 5000000\n"

    @pytest.mark.parametrize("argv, lines", [
        (("1f", "4", "0"), ["1f n=4: estimate 1.791759 +- 0.000000 (exact enumeration)",
                            "exact log-count 1.791759 -> inequality PASS"]),
        (("1f", "6", "4096", "--seed", "1"),
         ["1f n=6: estimate 7.859636 +- 0.009472 (4096 samples)",
          "exact log-count 6.579251 -> inequality PASS"]),
    ])
    def test_text_format(self, capsys, argv, lines):
        variant, n, samples, *rest = argv
        code, out, _ = run(capsys, "entropy", "--variant", variant, "--n", n,
                           "--samples", samples, *rest, "--format", "text")
        assert (code, out.splitlines()) == (0, lines)

    def test_one_sample_exit_1(self, capsys):
        code, out, err = run(capsys, "entropy", "--variant", "1f", "--n", "4", "--samples", "1")
        assert (code, out, err) == (1, "", "error: need at least 2 samples for a standard error\n")

    def test_python_m_entry_point(self):
        # `python -m designcount` runs __main__.py in a fresh interpreter
        proc = fresh_python("-m", "designcount", "entropy", "--variant", "sts", "--n", "7",
                            "--samples", "0")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["verdict"] == "PASS" and doc["exact"] is True


class TestCache:
    def test_append_and_consistency(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        run(capsys, "count", "--object", "sts", "--n", "7", "--cache", cache)
        run(capsys, "count", "--object", "sts", "--n", "9", "--cache", cache)
        code, _, _ = run(capsys, "count", "--object", "sts", "--n", "7",
                         "--cache", cache)
        assert code == 0
        lines = [json.loads(s) for s in open(cache).read().splitlines()]
        assert len(lines) == 3                       # append-only
        assert [e["count"] for e in lines] == ["30", "840", "30"]
        assert list(lines[0]) == ["kind", "n", "labeled", "count", "version",
                                  "timestamp", "runtime_seconds", "nodes"]

    def test_mismatch_fails_loudly(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        run(capsys, "count", "--object", "sts", "--n", "7", "--cache", cache)
        lines = open(cache).read().splitlines()
        doc = json.loads(lines[0])
        doc["count"] = "29"
        with open(cache, "w") as f:
            f.write(json.dumps(doc) + "\n")
        code, _, err = run(capsys, "count", "--object", "sts", "--n", "7",
                           "--cache", cache)
        assert code == 1 and "cache" in err and "29" in err

    def test_entropy_entries_keep_their_seed(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        code, _, _ = run(capsys, "entropy", "--variant", "1f", "--n", "4",
                         "--samples", "0", "--seed", "5", "--cache", cache)
        assert code == 0
        entry = json.loads(open(cache).read())
        assert entry["kind"] == "entropy" and entry["seed"] == 5
        # re-run with the same key must agree
        code, _, _ = run(capsys, "entropy", "--variant", "1f", "--n", "4",
                         "--samples", "0", "--seed", "5", "--cache", cache)
        assert code == 0

    def test_entropy_entries_from_an_older_stream_do_not_clash(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        old = {"kind": "entropy", "variant": "sts", "n": 7, "samples": 1000, "seed": 1,
               "estimate": 1.0, "se": 0.5, "version": "0.1.0"}
        cache.write_text(json.dumps(old) + "\n")
        code, _, _ = run(capsys, "entropy", "--variant", "sts", "--n", "7",
                         "--samples", "1000", "--seed", "1", "--cache", str(cache))
        assert code == 0
        lines = [json.loads(s) for s in cache.read_text().splitlines()]
        assert len(lines) == 2 and lines[0] == old
        assert lines[1]["stream"] == 4 and lines[1]["estimate"] != 1.0

    def test_a_stream_3_line_sits_beside_a_stream_4_one(self, capsys, tmp_path):
        # stream 3 ordered each star by drawn keys; the same key under
        # stream 4, stars in vertex order, is a new line, not a mismatch
        cache = tmp_path / "cache.jsonl"
        old = ('{"kind":"entropy","variant":"sts","n":9,"samples":4096,"seed":1,"stream":3,'
               '"estimate":7.880687972613337,"se":0.009580262057535828,"version":"0.1.0",'
               '"timestamp":"2026-10-19T12:00:00+00:00","runtime_seconds":0.05}')
        cache.write_text(old + "\n")
        code, out, err = run(capsys, "entropy", "--variant", "sts", "--n", "9",
                             "--samples", "4096", "--seed", "1", "--cache", str(cache))
        assert code == 0 and err == ""
        lines = cache.read_text().splitlines()
        assert len(lines) == 2 and lines[0] == old
        new = json.loads(lines[1])
        assert new["stream"] == 4 and new["estimate"] == json.loads(out)["estimate"]
        assert new["estimate"] != json.loads(old)["estimate"]

    def test_exact_entries_of_the_order_enumeration_do_not_clash(self, capsys, tmp_path):
        # written by the order-enumerating estimator (stream 2), one ulp below log 6;
        # the set sums give log 6 itself from stream 3 on
        cache = tmp_path / "cache.jsonl"
        old = ('{"kind":"entropy","variant":"1f","n":4,"samples":0,"seed":0,"stream":2,'
               '"estimate":1.7917594692280547,"se":0.0,"version":"0.1.0",'
               '"timestamp":"2026-10-18T11:01:30+00:00","runtime_seconds":0.002317}')
        cache.write_text(old + "\n")
        code, _, err = run(capsys, "entropy", "--variant", "1f", "--n", "4",
                           "--samples", "0", "--cache", str(cache))
        assert code == 0 and err == ""
        lines = cache.read_text().splitlines()
        assert len(lines) == 2 and lines[0] == old
        assert json.loads(lines[1])["stream"] == 4
        assert json.loads(lines[1])["estimate"] == math.log(6)

    def test_corrupt_line_exit_1(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text('{"kind":"count","n":3}\n{"kind":"sts","n":7\n')
        code, _, err = run(capsys, "count", "--object", "sts", "--n", "7",
                           "--cache", str(cache))
        assert code == 1
        assert err.count("\n") == 1 and str(cache) in err and "line 2" in err
        cache.write_bytes(b"\xff\xfe\n")
        code, _, err = run(capsys, "count", "--object", "sts", "--n", "7",
                           "--cache", str(cache))
        assert code == 1 and err.count("\n") == 1 and "line 1" in err

    STS7 = "{'kind': 'sts', 'n': 7, 'labeled': None}"

    def count(self, capsys, cache, n=7):
        return run(capsys, "count", "--object", "sts", "--n", str(n), "--cache", str(cache))

    def test_another_writers_malformed_line_is_named(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        for n in (7, 9):
            assert self.count(capsys, cache, n)[0] == 0
        with open(cache, "a") as f:
            f.write('{"kind":"sts","n":7\n')
        for _ in range(2):           # a failed append writes nothing
            code, _, err = self.count(capsys, cache)
            assert code == 1 and err == f"error: cache {cache}: line 3 is not a JSON object\n"

    def test_a_file_truncated_between_appends(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        for n in (7, 9, 7):
            assert self.count(capsys, cache, n)[0] == 0
        data = cache.read_bytes()
        first = data.index(b"\n") + 1
        cache.write_bytes(data[:first + 10])   # line 1 and the start of line 2
        code, _, err = self.count(capsys, cache)
        assert code == 1 and err == f"error: cache {cache}: line 2 is not a JSON object\n"
        cache.write_bytes(data[:first])
        assert self.count(capsys, cache, 9)[0] == 0
        lines = cache.read_bytes().splitlines(keepends=True)
        assert len(lines) == 2 and lines[0] == data[:first]
        assert json.loads(lines[1])["count"] == "840"

    def test_crlf_and_cr_lines(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        assert self.count(capsys, cache, 9)[0] == 0
        stale = b'{"kind":"sts","n":7,"labeled":null,"count":"29"}'
        with open(cache, "ab") as f:
            f.write(b'{"kind":"count","n":3}\r\n\r\n' + stale + b"\r\n")
        code, _, err = self.count(capsys, cache)
        assert code == 1 and err == (f"error: cache {cache}: key {self.STS7} stored "
                                     "count='29', recomputed '30'\n")
        cache.write_bytes(b'{"kind":"count","n":3}\r\n\r\n{"kind"\r\n')
        assert self.count(capsys, cache)[2] == f"error: cache {cache}: line 3 is not a JSON object\n"
        cache.write_bytes(b'{"kind":"count","n":3}\r{"kind"\r')
        assert self.count(capsys, cache)[2] == f"error: cache {cache}: line 2 is not a JSON object\n"
        cache.write_bytes(b'{"kind":"count","n":3}\r\n\r')
        assert self.count(capsys, cache)[0] == 0
        assert self.count(capsys, cache)[0] == 0
        lines = cache.read_bytes().split(b"\r\n\r")
        assert lines[0] == b'{"kind":"count","n":3}' and lines[1].count(b"\n") == 2

    @pytest.mark.parametrize("pad", ["\x0c", "\xa0", "\u2028"])
    def test_padding_that_json_does_not_skip(self, capsys, tmp_path, pad):
        # a line is stripped as text before it is parsed
        cache = tmp_path / "cache.jsonl"
        cache.write_text(f'{pad}{{"kind":"count","n":3}}{pad}\n', encoding="utf-8")
        assert self.count(capsys, cache)[0] == 0
        assert cache.read_text(encoding="utf-8").count("\n") == 2

    def test_the_first_disagreeing_line_is_named(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        assert self.count(capsys, cache, 9)[0] == 0
        with open(cache, "a") as f:
            for count in ("30", "31", "32"):
                f.write(json.dumps({"kind": "sts", "n": 7, "labeled": None, "count": count}) + "\n")
        want = f"error: cache {cache}: key {self.STS7} stored count='31', recomputed '30'\n"
        assert self.count(capsys, cache)[2] == want
        cache.write_text(cache.read_text().replace('"31"', '"30"'))
        assert self.count(capsys, cache)[2] == want.replace("'31'", "'32'")

    @staticmethod
    def _line_by_line(path, entry, key_fields, value_fields):
        """The cache check as a line iterator and ``json.loads``, the oracle of
        ``cli._append_cache``."""
        with open(path, "a+", encoding="utf-8", errors="replace") as f:
            f.seek(0)
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    old = json.loads(line)
                except json.JSONDecodeError:
                    old = None
                if not isinstance(old, dict):
                    raise DesignError(f"cache {path}: line {lineno} is not a JSON object")
                if all(old.get(k) == entry.get(k) for k in key_fields):
                    for v in value_fields:
                        if old.get(v) != entry.get(v):
                            raise cli.CacheMismatchError(
                                f"cache {path}: key "
                                f"{ {k: entry.get(k) for k in key_fields} } stored "
                                f"{v}={old.get(v)!r}, recomputed {entry.get(v)!r}")
            f.write(json.dumps(entry, sort_keys=False, separators=(",", ":")) + "\n")

    @pytest.mark.parametrize("data", [
        b"", b"\n\n  \n", b'{"kind":"sts","n":7,"labeled":null,"count":"30"}\n',
        b'{"kind":"sts","n":7,"labeled":null,"count":"29"}\n',
        b'{"kind":"sts","n":7,"labeled":null}\n', b'{"kind":"sts","n":7,"count":"29"}\n',
        b'{"kind":"sts",\n"n":7}\n', b'{"a":1} {"b":2}\n', b'{"a":1}x\n', b"[1,2]\n",
        b"NaN\n", b'{"n":NaN,"kind":"sts"}\n', b'"text"\n', b"\xff\xfe\n",
        b'{"kind":"\xff"}\n', b'\xef\xbb\xbf{"kind":"sts"}\n', b'{"a":"\\ud800"}\n',
        b'{"a":[{"b":{}}]}\r\n{"kind"\r', b'{"kind":"sts","n":7,"labeled":null,"count":"30"}\r',
        b'{"a":1}\x1c{"b":2}\n', '{"a":1}\u2028\n{"b":2}\n'.encode(), b"{}\n}\n", b"{\n",
        b'{"a":1}}\n', b'{"a":01}\n', b'{"a":1,}\n', b" \t{}\t \n",
    ])
    def test_one_read_against_the_line_iterator(self, tmp_path, data):
        entry = {"kind": "sts", "n": 7, "labeled": None, "count": "30", "nodes": 4}
        outcomes = []
        for append in (cli._append_cache, self._line_by_line):
            path = tmp_path / f"{append.__name__}.jsonl"
            path.write_bytes(data)
            try:
                append(str(path), entry, ("kind", "n", "labeled"), ("count",))
            except DesignError as e:
                outcomes.append((type(e), str(e).replace(str(path), "PATH")))
            else:
                outcomes.append(path.read_bytes())
        assert outcomes[0] == outcomes[1]

    def test_partial_counts_not_cached(self, capsys, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        code, _, _ = run(capsys, "count", "--object", "sts", "--n", "13",
                         "--node-budget", "100", "--cache", cache)
        assert code == 2
        import os
        assert not os.path.exists(cache) or open(cache).read() == ""


class TestImports:
    # each subcommand imports the modules it runs when it runs
    BASE = ["designcount", "designcount.cli", "designcount.errors"]
    SEARCH = ["designcount.core", "designcount.enumeration"]

    @pytest.mark.parametrize("argv, loaded", [
        ((), BASE),
        (("--help",), BASE),
        (("count", "--object", "sts", "--n", "9"), BASE + SEARCH),
        (("bounds", "--n", "16", "--list", "wilson-upper"), BASE + ["designcount.bounds"]),
        (("bounds", "--n", "16", "--list", "cameron-lower"),
         BASE + SEARCH + ["designcount.bounds"]),
        (("entropy", "--variant", "1f", "--n", "6", "--samples", "4096"),
         BASE + SEARCH + ["designcount.entropylab", "designcount.entropylab.rates",
                          "designcount.entropylab.reveal"]),
    ])
    def test_what_each_entry_point_loads(self, argv, loaded):
        script = ("import sys\n"
                  "from designcount import cli\n"
                  "if sys.argv[1:]:\n"
                  "    cli.main(sys.argv[1:])\n"
                  "print(sorted(m for m in sys.modules if m.startswith('designcount')))\n")
        proc = fresh_python("-c", script, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == repr(sorted(loaded))
