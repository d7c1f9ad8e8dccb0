"""Universe lifetime and the cyclic garbage collector.

``repro.sim.lifetime.building_universe`` pauses the collector while a
universe is built and freezes the result.  These tests hold it to its
contract: the simulated outcome never depends on when (or whether) the
collector runs, dropped universes are handed back and freed, the
permanent generation does not grow with repeated builds, and the
caller's ``gc.isenabled()`` survives every exit path.
"""

import gc
import json
import sys
import threading
import weakref

import pytest

from repro.config import ensure_components, run_scenario
from repro.config.spec import ScenarioSpec
from repro.core.api import NcsRuntime
from repro.net.blueprint import blueprint_wan_ring, materialize
from repro.registry import BLUEPRINTS
from repro.sim import lifetime
from repro.sim.sharded import _blueprint_for

ensure_components()


def _doc(name, mode, driver, params):
    return {"name": name,
            "cluster": {"topology": "wan-ring", "seed": 11,
                        "options": {"n_sites": 2, "hosts_per_site": 3}},
            "runtime": {"mode": mode},
            "app": {"driver": driver, "params": params},
            "obs": {"metrics": True}}


HSM_ALLTOALL = _doc("gc-a2a", "hsm", "alltoall",
                    {"rounds": 2, "nbytes": 512})
NSM_RING = _doc("gc-ring", "nsm", "ring", {"rounds": 2})


@pytest.fixture
def gc_state():
    """Restore the collector's switch and thresholds after a test."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*thresholds)
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _snapshot(doc) -> str:
    result = run_scenario(ScenarioSpec.from_dict(doc))
    return json.dumps(result.cluster.metrics.snapshot(), sort_keys=True)


@pytest.mark.parametrize("doc", [HSM_ALLTOALL, NSM_RING],
                         ids=["hsm-alltoall", "nsm-ring"])
def test_snapshot_is_independent_of_the_collector(doc, gc_state):
    """Default collection, none at all, and a collection on every
    allocation give byte-identical metrics: no finalizer and no
    address-dependent order can leak collector timing into the model."""
    default = _snapshot(doc)
    gc.disable()
    disabled = _snapshot(doc)
    gc.enable()
    gc.set_threshold(1)
    eager = _snapshot(doc)
    assert disabled == default
    assert eager == default


def _settle(bp) -> None:
    """A known start: nothing frozen, a full collection just run.

    The first build freezes or hands back what was frozen, the second
    then freezes nothing (with the collector disabled no full collection
    can run between them) and the collection lets the next build freeze.
    """
    materialize(bp)
    materialize(bp)
    gc.collect()


def _tracked() -> int:
    return len(gc.get_objects()) + gc.get_freeze_count()


def test_dropped_universes_are_freed_and_freezing_stays_bounded(gc_state):
    """Ten build-and-drop cycles under natural collection: the permanent
    generation never holds more than a few universes, and once the next
    build hands any frozen one back, a full collection frees every
    dropped simulator."""
    bp = blueprint_wan_ring(n_sites=2, hosts_per_site=2)
    gc.disable()
    _settle(bp)
    gc.enable()
    before = _tracked()
    probe = NcsRuntime(materialize(bp), mode="hsm")
    per_universe = _tracked() - before
    del probe
    refs, frozen = [], []
    for _ in range(10):
        cluster = materialize(bp)
        rt = NcsRuntime(cluster, mode="hsm")
        refs.append(weakref.ref(cluster.sim))
        frozen.append(gc.get_freeze_count())
        del cluster, rt
    assert max(frozen) <= before + 4 * per_universe
    gc.collect()                    # frees every dropped unfrozen one
    keep = materialize(bp)          # hands any frozen one back
    gc.collect()
    assert [r() for r in refs] == [None] * 10
    assert keep.sim is not None


def test_no_refreeze_until_a_full_collection(gc_state):
    """A new build hands the previous universe back and freezes nothing
    until a full collection has had the chance to free it.  The caller
    disables the collector so that only the explicit collections count."""
    bp = blueprint_wan_ring(n_sites=2, hosts_per_site=2)
    gc.disable()
    _settle(bp)
    first = materialize(bp)
    assert gc.get_freeze_count() > 0
    assert all(o is not first.sim for o in gc.get_objects())
    del first
    second = materialize(bp)
    assert gc.get_freeze_count() == 0
    NcsRuntime(second, mode="nsm")
    assert gc.get_freeze_count() == 0
    gc.collect()
    materialize(bp)
    assert gc.get_freeze_count() > 0


def test_repeated_runtimes_on_one_cluster_hand_back(gc_state):
    """A second runtime on the same cluster releases the first one's
    frozen state, so dropped runtimes do not pile up frozen."""
    bp = blueprint_wan_ring(n_sites=2, hosts_per_site=2)
    gc.disable()
    _settle(bp)
    cluster = materialize(bp)
    NcsRuntime(cluster, mode="hsm")
    assert gc.get_freeze_count() > 0
    NcsRuntime(cluster, mode="hsm")
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_partial_build_error_restores_collector_switch(enabled, gc_state):
    bp = blueprint_wan_ring(n_sites=2, hosts_per_site=2)
    if not enabled:
        gc.disable()
    with pytest.raises(ValueError, match="unknown switches"):
        materialize(bp, owned_switches={"nope"})
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_unknown_transport_restores_collector_switch(enabled, gc_state):
    cluster = materialize(blueprint_wan_ring(n_sites=2, hosts_per_site=2))
    if not enabled:
        gc.disable()
    with pytest.raises(ValueError, match="unknown transport"):
        NcsRuntime(cluster, mode="no-such-transport")
    assert gc.isenabled() is enabled


def test_callers_disable_is_never_turned_back_on(gc_state):
    gc.disable()
    result = run_scenario(ScenarioSpec.from_dict(NSM_RING))
    assert result.value["makespan_s"] > 0
    assert not gc.isenabled()


def test_concurrent_builds_leave_the_collector_as_found(gc_state):
    """Thread workers build at once (the sharded thread transport): the
    outermost build alone pauses and restores, whatever the
    interleaving."""
    bp = blueprint_wan_ring(n_sites=2, hosts_per_site=1)
    errors = []

    def build():
        try:
            for _ in range(5):
                NcsRuntime(materialize(bp), mode="hsm")
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert lifetime._COLLECTOR.depth == 0
    assert gc.isenabled()


def test_blueprint_for_maps_only_typed_errors_to_none():
    """No blueprint, or options the builder rejects, plan imperatively;
    any other builder failure is a bug and must surface."""
    spec = ScenarioSpec.from_dict(HSM_ALLTOALL)
    assert _blueprint_for(spec) is not None
    doc = dict(HSM_ALLTOALL, cluster={"topology": "no-such-topology"})
    assert _blueprint_for(ScenarioSpec.from_dict(doc)) is None
    doc = dict(HSM_ALLTOALL, cluster={"topology": "wan-ring",
                                      "options": {"bogus": 1}})
    assert _blueprint_for(ScenarioSpec.from_dict(doc)) is None
    doc = dict(HSM_ALLTOALL, cluster={"topology": "wan-ring",
                                      "options": {"n_sites": 0}})
    assert _blueprint_for(ScenarioSpec.from_dict(doc)) is None

    def broken(**_kw):
        raise RuntimeError("builder bug")

    BLUEPRINTS.register("broken-blueprint", broken)
    try:
        doc = dict(HSM_ALLTOALL, cluster={"topology": "broken-blueprint"})
        with pytest.raises(RuntimeError, match="builder bug"):
            _blueprint_for(ScenarioSpec.from_dict(doc))
    finally:
        BLUEPRINTS.unregister("broken-blueprint")
