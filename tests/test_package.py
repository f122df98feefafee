"""The package namespaces: each public name is imported from its module on
first use, and the names are the ones the eager imports gave."""

import importlib
import json

import pytest

import designcount
from designcount import core, entropylab, errors

from test_cli import fresh_python

# `from designcount import *` when __init__ imported core, enumeration and bounds
PACKAGE_NAMES = [
    "BoundReport", "CountResult", "DesignError", "EdgeColoring", "LatinSquare", "LogScalar",
    "Pool", "SearchConfig", "TripleSystem", "bound_report", "bounds", "cameron_lower_log",
    "conjectured_rate_log", "core", "count_latin_squares", "count_one_factorizations",
    "count_triple_systems", "enumerate_pool", "enumeration", "is_latin", "kahn_lovasz_log",
    "log_factorial", "peel_bound_log", "sample_uniform", "third_point", "to_latin_cube",
    "validate_edge_coloring", "validate_triple_system", "vdw_latin_lower_log", "wilson_bounds",
]
ENTROPYLAB_NAMES = [
    "EmptyConditionError", "EntropyEstimate", "LemmaVerdict", "RateValue", "RevealOrder",
    "RevealSets", "TooLargeError", "entropy_upper_estimate", "finite_sum_rate",
    "make_reveal_order", "reveal_sets_1f", "reveal_sets_sts", "sample_reveal_order",
    "verdicts_to_csv", "verdicts_to_json", "verify_M_expectation", "verify_N_law",
    "verify_position_law", "verify_suite",
]
MOVED = ["DesignError", "BadVertexError", "DuplicatePairError", "UncoveredPairError",
         "ColorClashError", "MissingEdgeError", "BadColorError", "SameVertexError", "BulkError"]


@pytest.mark.parametrize("package, public, loaded", [
    ("designcount", PACKAGE_NAMES, ["designcount"]),
    ("designcount.entropylab", sorted(ENTROPYLAB_NAMES + ["lemmas", "rates", "reveal"]),
     ["designcount", "designcount.entropylab"]),
])
def test_dir_and_star_import_give_the_eager_names(package, public, loaded):
    # dir() lists every name before any module loads; * loads them all
    script = ("import importlib, json, sys\n"
              "package = importlib.import_module(sys.argv[1])\n"
              "names = [n for n in dir(package) if not n.startswith('_')]\n"
              "modules = sorted(m for m in sys.modules if m.startswith('designcount'))\n"
              "star = {}\n"
              "exec(f'from {sys.argv[1]} import *', star)\n"
              "print(json.dumps([names, modules, sorted(set(star) - {'__builtins__'})]))\n")
    proc = fresh_python("-c", script, package)
    assert proc.returncode == 0, proc.stderr
    star = PACKAGE_NAMES if package == "designcount" else ENTROPYLAB_NAMES
    assert json.loads(proc.stdout) == [public, loaded, star]


def test_submodules_resolve_after_a_bare_import():
    proc = fresh_python("-c", "import designcount, designcount.entropylab as lab\n"
                              "print(designcount.bounds.wilson_bounds.__module__,\n"
                              "      designcount.core.__name__, designcount.enumeration.__name__,\n"
                              "      lab.reveal.__name__, lab.lemmas.__name__, lab.rates.__name__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "designcount.bounds", "designcount.core", "designcount.enumeration",
        "designcount.entropylab.reveal", "designcount.entropylab.lemmas",
        "designcount.entropylab.rates"]


@pytest.mark.parametrize("package", [designcount, entropylab])
def test_each_name_is_its_modules_object(package):
    for name in package.__all__:
        value = getattr(package, name)
        if name in ("core", "enumeration", "bounds"):
            assert value is importlib.import_module(f"designcount.{name}")
        else:
            assert getattr(importlib.import_module(value.__module__), name) is value, name


@pytest.mark.parametrize("package", [designcount, entropylab])
def test_an_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError,
                       match=f"^module '{package.__name__}' has no attribute 'wilson'$"):
        package.wilson
    with pytest.raises(ImportError, match="cannot import name 'wilson'"):
        exec(f"from {package.__name__} import wilson", {})


@pytest.mark.parametrize("name", MOVED)
def test_each_error_class_is_one_class(name):
    cls = getattr(errors, name)
    assert getattr(core, name) is cls and cls.__module__ == "designcount.errors"
    assert issubclass(cls, errors.DesignError)
    if name in designcount.__all__:
        assert getattr(designcount, name) is cls
