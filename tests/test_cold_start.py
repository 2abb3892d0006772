"""What a fresh interpreter pays to import ``repro``.

Every case runs in a new ``sys.executable`` process: the test process
has long since imported numpy and most of the package.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: Packages that neither the package init nor the optimize-and-price
#: path may load.
NOT_ON_OP_PATH = (
    "repro.api",
    "repro.robust",
    "repro.baselines",
    "repro.cache",
    "repro.sweep",
    "repro.experiments",
    "repro.serve",
    "repro.fleet",
)

#: Modules the op path's packages re-export but no op calls.
TRIMMED = (
    "repro.obs.summary",
    "repro.sim.interpret",
    "repro.ir.codegen_c",
    "repro.ir.halide_out",
    "repro.ir.printer",
)

#: ``repro.__all__``, in order, as the package has always exported it.
PUBLIC = [
    "api",
    "OptimizeOptions",
    "OptimizeRequest",
    "OptimizeResult",
    "ScheduleCache",
    "ArchSpec",
    "CacheSpec",
    "platform_by_name",
    "Classification",
    "Locality",
    "OptimizationResult",
    "classify",
    "optimize",
    "Buffer",
    "Func",
    "Pipeline",
    "RVar",
    "Schedule",
    "Var",
    "float32",
    "float64",
    "int32",
    "lower",
    "print_nest",
    "Machine",
    "Diagnostics",
    "FallbackPolicy",
    "SafeResult",
    "safe_optimize",
    "safe_optimize_pipeline",
    "Deadline",
    "DeadlineExceeded",
    "ReproError",
    "ValidationError",
    "__version__",
]


def fresh(code, **env):
    """Run ``code`` in a fresh interpreter; returns its last stdout line
    parsed as JSON.  ``env`` entries set to None are removed."""
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, environ.get("PYTHONPATH")])
    )
    for key, value in env.items():
        if value is None:
            environ.pop(key, None)
        else:
            environ[key] = value
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=environ,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(statement):
    return set(fresh(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('repro', 'numpy'))))"
    ))


def under(modules, package):
    return sorted(m for m in modules if m == package
                  or m.startswith(package + "."))


class TestImportSet:
    def test_import_repro_loads_only_the_namespace(self):
        assert loaded_after("import repro") == {"repro", "repro._lazy"}

    def test_import_repro_arch_loads_no_numpy(self):
        assert loaded_after("import repro.arch") == {
            "repro",
            "repro._lazy",
            "repro.arch",
            "repro.arch.params",
            "repro.arch.platforms",
            "repro.util",
            "repro.util.deadline",
            "repro.util.errors",
            "repro.util.jsonfile",
            "repro.util.numbers",
            "repro.util.workers",
        }

    def test_op_path_loads_only_what_ops_run(self):
        modules = loaded_after(
            "import repro.core.optimizer, repro.sim.machine, "
            "repro.frontend.lowering, repro.multistride"
        )
        assert "repro.multistride.strategy" in modules  # it did import
        for package in NOT_ON_OP_PATH + TRIMMED:
            assert under(modules, package) == [], package

    def test_exit_codes_load_no_numpy(self):
        # Every CLI imports them only for integer constants.
        assert loaded_after("import repro.core.exitcodes") == {
            "repro", "repro._lazy", "repro.core", "repro.core.exitcodes"
        }

    @pytest.mark.parametrize("statement, absent", [
        ("import repro.__main__", (
            "repro.api", "repro.baselines", "repro.bench", "repro.cache",
            "repro.experiments.harness", "repro.robust", "repro.sim",
            "repro.ir.codegen_c", "repro.serve", "repro.fleet", "numpy",
        )),
        ("import repro.sweep.worker", (
            "repro.cache", "repro.api", "repro.sweep.runner",
            "repro.sweep.plan", "repro.sweep.journal",
        )),
    ])
    def test_entry_points_import_per_use(self, statement, absent):
        modules = loaded_after(statement)
        for package in absent:
            assert under(modules, package) == [], package


class TestNamespace:
    def test_all_is_unchanged_and_each_name_is_its_modules_object(self):
        result = fresh(
            "import json, sys, types\n"
            "import repro\n"
            "same = {}\n"
            "for name in repro.__all__[:-1]:\n"
            "    value = getattr(repro, name)\n"
            "    if isinstance(value, types.ModuleType):\n"
            "        same[name] = sys.modules[value.__name__] is value\n"
            "    else:\n"
            "        home = sys.modules[value.__module__]\n"
            "        same[name] = getattr(home, name) is value\n"
            "print(json.dumps({'all': repro.__all__, 'same': same,\n"
            "                  'version': repro.__version__}))"
        )
        assert result["all"] == PUBLIC
        assert result["version"] == "3.0.0"
        assert result["same"] == {name: True for name in PUBLIC[:-1]}

    def test_dir_star_import_and_unknown_names(self):
        result = fresh(
            "import json\n"
            "import repro\n"
            "listed = sorted(set(repro.__all__) - set(dir(repro)))\n"
            "scope = {}\n"
            "exec('from repro import *', scope)\n"
            "unbound = sorted(set(repro.__all__) - set(scope))\n"
            "try:\n"
            "    repro.no_such_name\n"
            "    unknown = 'bound'\n"
            "except AttributeError as exc:\n"
            "    unknown = str(exc)\n"
            "print(json.dumps([listed, unbound, unknown]))"
        )
        assert result == [
            [], [], "module 'repro' has no attribute 'no_such_name'"
        ]

    @pytest.mark.parametrize("package, name, home", [
        ("repro.ir", "emit_halide", "repro.ir.halide_out"),
        ("repro.sim", "execute", "repro.sim.interpret"),
        ("repro.obs", "render_summary", "repro.obs.summary"),
        ("repro.cache", "ScheduleCache", "repro.cache.store"),
        ("repro.experiments", "ExperimentConfig", "repro.experiments.harness"),
    ])
    def test_subpackage_names_resolve_on_first_use(self, package, name, home):
        result = fresh(
            "import importlib, json, sys\n"
            f"package = importlib.import_module({package!r})\n"
            f"before = {home!r} in sys.modules\n"
            f"value = getattr(package, {name!r})\n"
            f"same = value is getattr(sys.modules[{home!r}], {name!r})\n"
            f"print(json.dumps([before, same, {name!r} in dir(package),\n"
            f"                  {name!r} in package.__all__]))"
        )
        assert result == [False, True, True, True]


    @pytest.mark.parametrize(
        "first", ["", "import repro.core.optimizer"],
        ids=["fresh", "submodules-first"],
    )
    def test_core_names_are_their_definitions(self, first):
        # repro.core.classify and repro.core.emu are both submodules and
        # exported functions; importing the submodules first (``first``)
        # must not shadow the functions.
        result = fresh(
            "import json, sys\n"
            f"{first}\n"
            "import repro.core\n"
            "from repro.core import optimize\n"
            "wrong = []\n"
            "for name in repro.core.__all__:\n"
            "    value = getattr(repro.core, name)\n"
            "    home = sys.modules.get(getattr(value, '__module__', ''))\n"
            "    if getattr(home, name, None) is not value:\n"
            "        wrong.append(name)\n"
            "print(json.dumps([wrong, len(repro.core.__all__),\n"
            "                  optimize.__module__]))"
        )
        assert result == [[], 24, "repro.core.optimizer"]


class TestBlasDefault:
    def test_unset_reads_one_after_import(self):
        assert fresh(
            "import json, os, repro\n"
            "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))",
            OPENBLAS_NUM_THREADS=None,
        ) == "1"

    def test_explicit_value_survives(self):
        assert fresh(
            "import json, os, repro\n"
            "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))",
            OPENBLAS_NUM_THREADS="3",
        ) == "3"
