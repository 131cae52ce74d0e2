"""The package facades: what they export, and what importing them costs.

Each ``repro.<pkg>/__init__.py`` is a lazy facade (``repro/_lazy.py``):
importing the package imports none of its submodules, and a name's
owning submodule is imported on first access.  The contract tests pin
that every exported name resolves to its owner's object; the footprint
tests pin, in a fresh interpreter, that an engine-only process never
compiles the §3 crawl pipeline, the device zoo or the full testbed.
"""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

FACADES = (
    "analysis", "crawler", "ecosystem", "engine", "experiments", "faults", "frontend",
    "iot", "net", "obs", "reporting", "services", "simcore", "testbed", "webapps",
)


def is_export_table(node):
    """Whether *node* is a facade's ``_lazy.exports(globals(), {...})`` call."""
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "exports"


def facade_table(package):
    """``{public name: (submodule, attribute)}`` as the facade's source spells it.

    Reads both spellings a facade can have: ``from repro.pkg.sub import
    name [as public]`` lines and a ``_lazy.exports(globals(), {...})``
    table.
    """
    path = os.path.join(SRC, "repro", package, "__init__.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith(f"repro.{package}."):
            submodule = node.module.rsplit(".", 1)[1]
            for alias in node.names:
                table[alias.asname or alias.name] = (submodule, alias.name)
        elif is_export_table(node):
            for submodule, names in ast.literal_eval(node.args[1]).items():
                for entry in names:
                    public, attribute = entry if isinstance(entry, tuple) else (entry, entry)
                    table[public] = (submodule, attribute)
    return table


@pytest.mark.parametrize("package", FACADES)
class TestFacadeContract:
    def test_every_name_is_its_owners_object(self, package):
        pkg = importlib.import_module(f"repro.{package}")
        table = facade_table(package)
        assert set(table) == set(pkg.__all__)
        for name, (submodule, attribute) in table.items():
            owner = importlib.import_module(f"repro.{package}.{submodule}")
            assert getattr(pkg, name) is getattr(owner, attribute), name

    def test_dir_lists_every_export(self, package):
        pkg = importlib.import_module(f"repro.{package}")
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_star_import_binds_exactly_all(self, package):
        namespace = {}
        exec(f"from repro.{package} import *", namespace)
        namespace.pop("__builtins__")
        pkg = importlib.import_module(f"repro.{package}")
        assert set(namespace) == set(pkg.__all__)

    def test_unknown_name_raises_attribute_error_naming_the_package(self, package):
        pkg = importlib.import_module(f"repro.{package}")
        with pytest.raises(AttributeError, match=f"repro.{package}"):
            pkg.NoSuchName

    def test_all_has_no_duplicates(self, package):
        pkg = importlib.import_module(f"repro.{package}")
        assert len(pkg.__all__) == len(set(pkg.__all__))


def loaded_after(statement):
    """The ``repro`` modules a fresh interpreter holds after *statement*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


class TestImportFootprint:
    def test_facades_import_no_submodule(self):
        statement = "\n".join(f"import repro.{package}" for package in FACADES)
        expected = {"repro", "repro._lazy"} | {f"repro.{package}" for package in FACADES}
        assert loaded_after(statement) == expected

    def test_engine_facade_alone(self):
        assert loaded_after("import repro.engine") == {"repro", "repro._lazy", "repro.engine"}

    def test_engine_world_skips_the_crawl_pipeline_and_the_testbed(self):
        loaded = loaded_after("import repro.testbed.chaos, repro.testbed.workload")
        section3 = ("ecosystem", "crawler", "frontend", "analysis", "reporting",
                    "experiments", "webapps")
        assert not [m for m in loaded if m.partition(".")[2].split(".")[0] in section3]
        assert not loaded & {
            "repro.services.official",
            "repro.services.custom",
            "repro.testbed.testbed",
            "repro.testbed.scenarios",
            "repro.testbed.corpus_bridge",
        }
        assert {"repro.testbed.chaos", "repro.testbed.workload"} <= loaded


# -- the public surface has callers outside tests/ ---------------------------------------

#: Where a caller counts: everything a user can run.  ``tests/`` is not here.
CALLER_TREES = ("src", "tools", "benchmarks", "examples")

#: Public definitions that only tests reach, each with why it stays: ``item
#: 14`` (a paper finding whose caller is ROADMAP item 14's reproduction
#: report), ``reference`` (an oracle a test checks the fast path against),
#: ``fake`` (a stand-in tests build worlds from) or ``inspection`` (a
#: read-only accessor over state the program keeps anyway).  The list may
#: only shrink: an entry whose definition gains a caller or goes fails
#: the guard until it is removed here.
TEST_ONLY_ALLOWLIST = {
    "repro.analysis.churn:ChurnReport.applet_birth_rate": "item 14: §3 churn",
    "repro.analysis.churn:weekly_churn": "item 14: §3 churn",
    "repro.analysis.growthstats:monotonically_growing":
        "item 14: §3.2 'kept growing steadily'",
    "repro.analysis.heatmap:col_sums": "item 14: Table 1 action marginals",
    "repro.analysis.heatmap:heatmap_intensity": "item 14: Figure 2 shading",
    "repro.analysis.heatmap:row_sums": "item 14: Table 1 trigger marginals",
    "repro.analysis.history:GrowthFit.annual_growth": "item 14: §3 growth",
    "repro.analysis.history:GrowthFit.doubling_time_years": "item 14: §3 growth",
    "repro.analysis.history:fit_residuals": "item 14: §3 growth",
    "repro.analysis.permissions_study:PermissionStudyResult.mean_overgrant_factor":
        "item 14: §6 permissions",
    "repro.analysis.permissions_study:run_permission_study": "item 14: §6 permissions",
    "repro.analysis.tables:table2": "item 14: Table 2",
    "repro.analysis.usercontrib:UserContribution.dominated_by_users":
        "item 14: §3 user contribution",
    "repro.ecosystem.categories:iot_service_share": "item 14: §3.2 IoT service share",
    "repro.ecosystem.popularity:fit_zipf_alpha": "item 14: Figure 3",
    "repro.engine.local:HybridScheduler": "item 14: §6 local execution",
    "repro.engine.local:HybridScheduler.local_fraction": "item 14: §6 local execution",
    "repro.engine.local:HybridScheduler.mark_local_engine_down":
        "item 14: §6 local execution",
    "repro.engine.local:HybridScheduler.mark_local_engine_up": "item 14: §6 local execution",
    "repro.engine.local:LocalEngine.hue_command": "item 14: §6 local execution",
    "repro.engine.local:LocalEngine.install_local_applet": "item 14: §6 local execution",
    "repro.engine.local:LocalEngine.local_applets": "item 14: §6 local execution",
    "repro.engine.permissions:PerEndpointPermissionModel": "item 14: §6 permissions",
    "repro.engine.permissions:PerEndpointPermissionModel.grant_for_applet":
        "item 14: §6 permissions",
    "repro.engine.permissions:excess_privilege": "item 14: §6 permissions",
    "repro.engine.permissions:required_scopes": "item 14: §6 permissions",
    "repro.testbed.concurrent:ConcurrentResult.spread": "item 14: §4 concurrent applets",
    "repro.testbed.corpus_bridge:CorpusWorld.fire_trigger": "item 14: §3 corpus on the engine",
    "repro.testbed.corpus_bridge:build_corpus_world": "item 14: §3 corpus on the engine",
    "repro.testbed.decomposition:StageBreakdown.poll_share": "item 14: Table 5 stages",
    "repro.testbed.sequential:SequentialResult.cluster_sizes": "item 14: Figure 6",
    "repro.testbed.sequential:SequentialResult.max_inter_cluster_gap": "item 14: Figure 6",
    "repro.testbed.sequential:run_sequential_extreme": "item 14: Figure 6",
    "repro.testbed.t2a:T2AResults.group_quartiles": "item 14: Figure 4",
    "repro.testbed.t2a:T2AResults.maximum": "item 14: Figure 4",
    "repro.testbed.t2a:run_hosted_alexa_t2a": "item 14: §4 hosting Alexa ourselves",
    "repro.engine.engine:IftttEngine.breaker_for": "inspection: a service's breaker",
    "repro.net.latency:FixedLatency": "fake: a constant hop delay",
    "repro.net.link:Link.sample_delay": "reference: one hop of Network._sample_path",
    "repro.net.network:Network.path_delay": "reference: the fault-free path draw",
    "repro.obs.bridge:bridge_trace": "reference: the trace fold live metrics must equal",
    "repro.obs.metrics:Histogram.quantile": "inspection: one quantile of a live histogram",
    "repro.obs.metrics:snapshot_from_json_lines": "inspection: reads --metrics output back",
    "repro.services.partner:PartnerService.buffer_for": "inspection: an identity's buffer",
    "repro.services.partner:PartnerService.known_identities":
        "inspection: registered identities",
    "repro.simcore.event:Event.canceled": "inspection: whether an event was canceled",
    "repro.simcore.rng:Rng.lognormal_median": "reference: LognormalLatency.sample's draw",
    "repro.simcore.trace:Trace.kinds": "inspection: record kinds",
    "repro.testbed.chaos:ChaosResult.healthy_shards": "inspection: the non-victim shards",
}

REASON_TAGS = ("item 14", "reference", "fake", "inspection")


def _python_files(tree):
    for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, tree)):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def public_definitions():
    """``{"module:qualname": name}`` for every public module-level def or
    class under ``src/repro`` and every public method of such a class."""
    found = {}
    for path in _python_files(os.path.join("src", "repro")):
        module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            found[f"{module}:{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and member.name[0] != "_":
                        found[f"{module}:{node.name}.{member.name}"] = member.name
    return found


def names_reached():
    """Every name a caller tree loads, as a ``Name`` or an ``Attribute``,
    plus every identifier-shaped string outside a facade's export table
    (``getattr``-style references such as the ledger's ``"shutdown"``)."""
    reached = set()
    for tree in CALLER_TREES:
        for path in _python_files(tree):
            module = _parse(path)
            tables = {id(n) for t in ast.walk(module) if is_export_table(t) for n in ast.walk(t)}
            for node in ast.walk(module):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reached.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reached.add(node.attr)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.isidentifier() and id(node) not in tables):
                    reached.add(node.value)
    return reached


class TestNoTestOnlySurface:
    """A public definition needs a caller a user can reach, not just a test."""

    def test_only_allowlisted_definitions_lack_a_caller(self):
        reached = names_reached()
        flagged = {key for key, name in public_definitions().items() if name not in reached}
        unlisted = sorted(flagged - TEST_ONLY_ALLOWLIST.keys())
        stale = sorted(TEST_ONLY_ALLOWLIST.keys() - flagged)
        assert not unlisted, (
            f"public definitions only tests reach: {unlisted}; give each a caller in "
            f"{', '.join(CALLER_TREES)} or delete it with its tests"
        )
        assert not stale, f"stale allowlist entries (remove them): {stale}"

    def test_every_allowlist_entry_gives_a_reason(self):
        for key, reason in TEST_ONLY_ALLOWLIST.items():
            assert reason.split(":")[0] in REASON_TAGS, key


# -- every setting has a caller that sets it ---------------------------------------------

#: The settings classes whose fields are knobs, and those that must stay
#: fieldless on/off switches (their tunables are module constants).
KNOB_CLASSES = (
    ("repro.engine.config", "EngineConfig"),
    ("repro.engine.resilience", "ReplayPolicy"),
    ("repro.engine.push", "PushPolicy"),
)
FIELDLESS_CLASSES = (
    ("repro.engine.delivery", "DeliveryPolicy"),
)

#: How many fields ``KNOB_CLASSES`` have together.  A new field fails the
#: pin until it is raised here, in the same change that gives the field
#: a caller.
SETTABLE_VALUES = 14


def _fields(pairs):
    """``{"Class": [field names]}`` for each ``(module, class)`` pair."""
    return {
        name: [f.name for f in dataclasses.fields(getattr(importlib.import_module(module), name))]
        for module, name in pairs
    }


def knobs_set(classes):
    """Every ``"Class.field"`` a caller tree passes by keyword to a call of
    ``Class`` or of ``dataclasses.replace`` (under any alias).  Matched by
    callee, since bare keyword names collide across unrelated calls."""
    found = set()
    for tree in CALLER_TREES:
        for path in _python_files(tree):
            module = _parse(path)
            replaces = {"replace"} | {
                alias.asname
                for node in ast.walk(module)
                if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                for alias in node.names
                if alias.name == "replace" and alias.asname
            }
            for node in ast.walk(module):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                owners = classes if callee in replaces else [callee] if callee in classes else []
                found |= {f"{owner}.{kw.arg}" for owner in owners for kw in node.keywords
                          if kw.arg is not None}
    return found


class TestNoTestOnlyKnob:
    """A setting needs a caller outside tests that sets it, or it is a constant."""

    def test_every_knob_is_set_by_a_caller(self):
        knobs = {f"{name}.{field}" for name, fields in _fields(KNOB_CLASSES).items()
                 for field in fields}
        unset = sorted(knobs - knobs_set([name for _, name in KNOB_CLASSES]))
        assert not unset, (
            f"settings only tests set: {unset}; make each a module constant, or "
            f"set it from {', '.join(CALLER_TREES)}"
        )

    def test_settable_values_are_pinned(self):
        assert sum(map(len, _fields(KNOB_CLASSES).values())) == SETTABLE_VALUES

    def test_switch_policies_stay_fieldless(self):
        knobs = {name: fields for name, fields in _fields(FIELDLESS_CLASSES).items() if fields}
        assert not knobs, f"on/off switches with settable fields: {knobs}"
