"""Two-phase topology construction: declarative blueprints + materialize.

Phase 1 — a registered blueprint builder (:data:`repro.registry.BLUEPRINTS`,
same name and signature as the matching :data:`~repro.registry.TOPOLOGIES`
entry) produces a :class:`TopologyBlueprint`: a cheap, frozen description
of every switch, trunk, host and LAN segment, in **exact global
construction order**.  Building a blueprint allocates no simulator, no
processes and no O(n²) VC mesh, so a coordinator can plan a 1024-host
WAN in microseconds.

Phase 2 — :func:`materialize` instantiates a blueprint:

* ``materialize(bp)`` replays the imperative builder call-for-call and
  returns a cluster **byte-identical** to the pre-blueprint construction
  (the perf-lock and determinism goldens hold over this path);
* ``materialize(bp, owned_switches=...)`` builds a *partial* universe
  for one shard of the sharded kernel: only hosts behind owned switches
  (and the owned switches themselves) become real simulation objects.
  Foreign switches at a cut trunk are replaced by :class:`_StubSwitch`
  boundary stubs — inert name-carriers terminating the materialized cut
  channels, whose traffic the kernel's export/``schedule_at`` seam
  carries instead — and foreign hosts by :class:`GhostStack` rows that
  keep ``cluster.stacks`` full-length and pid-stable.

The partial path must still agree with every other universe on VC
identifiers and VCIs, because cross-shard bursts are re-bound by
``vc_id`` and forwarded by switch ``(channel, VCI)`` tables.  It
therefore replays the **entire global mesh** over a shadow name-graph
(same node/edge insertion order and weights as the real fabric, so
Dijkstra tie-breaks agree), allocating VCIs and ``vc_id`` sequence
numbers for every pair while instantiating state only for pairs that
touch the shard (as endpoint or transit switch).  Pairs that merely
transit an owned switch get a tiny :class:`_TransitVc` so burst
re-binding works without the per-VC object weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Any, Optional

import networkx as nx

from ..atm.link import DS3, LinkSpec, OC3, TAXI_140
from ..hosts import HostParams, SUN_ELC, SUN_IPX
from ..registry import BLUEPRINTS
from ..sim.lifetime import building_universe

__all__ = [
    "SwitchItem", "TrunkItem", "HostItem", "LanItem", "TopologyBlueprint",
    "materialize", "PlanView", "GhostStack",
]


# --------------------------------------------------------------------------
# the declarative model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchItem:
    """One ATM switch: create ``AtmSwitch(sim, name, latency_s)``."""

    name: str
    site: Optional[str] = None
    latency_s: float = 10e-6


@dataclass(frozen=True)
class TrunkItem:
    """One switch-to-switch duplex trunk (``fabric.connect(a, b, spec)``)."""

    a: str
    b: str
    spec: LinkSpec
    #: deterministic WAN trunk the sharded kernel may cut
    cut_eligible: bool = False


@dataclass(frozen=True)
class HostItem:
    """One host row: full protocol stack, attached to ``switch`` (if any)."""

    name: str
    pid: int
    site: Optional[str] = None
    switch: Optional[str] = None
    link_spec: Optional[LinkSpec] = None


@dataclass(frozen=True)
class LanItem:
    """The shared Ethernet segment (ethernet / dual-rail topologies)."""

    bandwidth_bps: float = 10e6
    collisions: bool = False


@dataclass(frozen=True)
class TopologyBlueprint:
    """A topology, fully described but not yet instantiated.

    ``items`` holds :class:`SwitchItem`/:class:`TrunkItem`/:class:`HostItem`
    rows in the **exact order** the imperative builder would create them —
    materializing the whole tuple replays the builder byte-for-byte.
    """

    medium: str                  # "ethernet" | "atm-lan" | "atm-dual" | ...
    seed: int
    trace: bool
    metrics: bool
    params: HostParams
    tcp_params: Any              # Optional[TcpParams] (kept opaque)
    train_cells: int
    preconnect: bool
    host_rail: str               # "ethernet" | "atm" | "dual"
    #: PVC mesh style: "none" (no fabric mesh), "separate" (classical
    #: mesh pass then HSM mesh pass), "interleaved" (classical + HSM per
    #: pair), "hsm-only" (dual-rail: IP rides the LAN)
    mesh: str
    lan: Optional[LanItem] = None
    items: tuple = ()

    @property
    def hosts(self) -> list[HostItem]:
        return [it for it in self.items if isinstance(it, HostItem)]

    @property
    def switches(self) -> list[SwitchItem]:
        return [it for it in self.items if isinstance(it, SwitchItem)]

    @property
    def trunks(self) -> list[TrunkItem]:
        return [it for it in self.items if isinstance(it, TrunkItem)]

    @property
    def n_hosts(self) -> int:
        return sum(1 for it in self.items if isinstance(it, HostItem))


# --------------------------------------------------------------------------
# boundary stubs + ghost rows (partial materialization)
# --------------------------------------------------------------------------

class _StubSwitch:
    """A foreign switch at a cut: a name-carrier terminating the cut
    channel replica.  Never added to ``fabric.switches`` (no metrics, no
    forwarding); its incoming channel's ``_dispatch`` is either exported
    by the sharded kernel (owned direction) or never fires (foreign
    direction — the stub never transmits)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StubSwitch {self.name}>"


class _StubAdapter:
    """A foreign VC endpoint: just the host name, for ``VirtualChannel``
    repr/identity on pairs whose other end lives in another shard."""

    __slots__ = ("host_name",)

    def __init__(self, host_name: str):
        self.host_name = host_name


class _GhostHost:
    """The ``.host`` of a :class:`GhostStack`: name + liveness flag."""

    __slots__ = ("name", "frozen")

    def __init__(self, name: str):
        self.name = name
        self.frozen = False


class GhostStack:
    """A non-materialized host row: keeps ``cluster.stacks`` full-length
    so pids, names and merge rules stay global.  ``NcsRuntime`` detects
    the ``ghost`` marker and attaches a tid-mirroring ghost node instead
    of a real scheduler/transport/MPS."""

    ghost = True
    __slots__ = ("host", "pid")

    def __init__(self, name: str, pid: int):
        self.host = _GhostHost(name)
        self.pid = pid

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GhostStack pid={self.pid} {self.host.name}>"


class _TransitVc:
    """A VC that only *transits* this shard: enough identity for burst
    re-binding (``sig.open_vcs[vc_id]``) and re-export, nothing more."""

    __slots__ = ("vc_id",)

    def __init__(self, vc_id: int):
        self.vc_id = vc_id


# --------------------------------------------------------------------------
# materialize: full replay
# --------------------------------------------------------------------------

def materialize(bp: TopologyBlueprint, owned_switches=None):
    """Instantiate a blueprint into a :class:`~repro.net.topology.Cluster`.

    With ``owned_switches=None`` the full universe is built, replaying
    the imperative builder exactly.  With a set of switch names, a
    partial shard universe is built (ATM-rail, LAN-free topologies
    only): hosts behind foreign switches become :class:`GhostStack`
    rows, foreign switches become boundary stubs, and the global VC
    mesh is replayed over a shadow graph so identifiers match every
    other shard bit-for-bit.

    The build runs with the cyclic collector paused, and the finished
    universe is frozen out of later collections; the previous universe
    is handed back to the collector first (:mod:`repro.sim.lifetime`).
    """
    with building_universe(new=True):
        if owned_switches is None:
            return _materialize_full(bp)
        return _materialize_partial(bp, frozenset(owned_switches))


def _build_host(bp, sim, rngs, tracer, lan, fabric, switches, item):
    """One host row, in the imperative builders' exact call order."""
    from ..atm import AtmApi, Sba200Adapter
    from ..ethernet import EthernetNic
    from ..hosts import Host, OsProcess
    from ..protocols import (AtmIpAdapter, EthernetIpAdapter, IpLayer,
                             SocketLayer, TcpStack, UdpStack)
    from .topology import NodeStack

    params = bp.params
    name = item.name
    host = Host(sim, name, cpu=params.cpu, os=params.os, tracer=tracer)
    nic = None
    if bp.host_rail in ("ethernet", "dual"):
        nic = EthernetNic(sim, lan, name)
        host.attach_interface("ethernet", nic)
    if bp.host_rail in ("atm", "dual"):
        sba = Sba200Adapter(sim, name, train_cells=bp.train_cells)
        host.attach_interface("atm", sba)
        fabric.add_adapter(sba)
        rng = rngs.stream(f"link.{name}")
        fabric.connect(sba, switches[item.switch], item.link_spec,
                       rng_a=rng, rng_b=rng)
    if bp.host_rail == "atm":
        atm_api = AtmApi(host)
        ip_adapter = AtmIpAdapter(atm_api)
    elif bp.host_rail == "dual":
        atm_api = AtmApi(host)
        ip_adapter = EthernetIpAdapter(nic)
    else:
        atm_api = None
        ip_adapter = EthernetIpAdapter(nic)
    ip = IpLayer(sim, name, ip_adapter)
    ip_adapter.bind(ip)
    tcp = TcpStack(host, ip, bp.tcp_params)
    return NodeStack(
        host=host, process=OsProcess(host, pid=item.pid), ip=ip, tcp=tcp,
        socket=SocketLayer(host, tcp), udp=UdpStack(host, ip),
        atm_api=atm_api)


def _fresh_universe(bp):
    """Simulator / RNG registry / tracer / LAN, in builder order."""
    from ..ethernet import EthernetLan
    from ..obs.registry import MetricsRegistry, NULL_REGISTRY
    from ..sim import NullTracer, RngRegistry, Simulator, Tracer

    sim = Simulator(metrics=MetricsRegistry() if bp.metrics
                    else NULL_REGISTRY)
    rngs = RngRegistry(bp.seed)
    tracer = Tracer(sim) if bp.trace else NullTracer(sim)
    lan = None
    if bp.lan is not None:
        lan = EthernetLan(sim, bandwidth_bps=bp.lan.bandwidth_bps,
                          collisions=bp.lan.collisions, rngs=rngs)
    return sim, rngs, tracer, lan


def _materialize_full(bp: TopologyBlueprint):
    from ..atm import AtmFabric, AtmSwitch, SignalingController
    from .topology import Cluster

    sim, rngs, tracer, lan = _fresh_universe(bp)
    fabric = AtmFabric(sim) if bp.host_rail != "ethernet" else None
    switches: dict[str, Any] = {}
    stacks = []
    for item in bp.items:
        if isinstance(item, SwitchItem):
            switches[item.name] = fabric.add_switch(
                AtmSwitch(sim, item.name, switching_latency_s=item.latency_s))
        elif isinstance(item, TrunkItem):
            fabric.connect(switches[item.a], switches[item.b], item.spec)
        else:
            stacks.append(_build_host(bp, sim, rngs, tracer, lan, fabric,
                                      switches, item))
    sig = SignalingController(fabric) if fabric is not None else None
    cluster = Cluster(sim=sim, rngs=rngs, tracer=tracer, stacks=stacks,
                      medium=bp.medium, lan=lan, fabric=fabric,
                      signaling=sig)
    names = [s.host.name for s in stacks]
    n = len(names)
    if bp.mesh == "separate":
        for i in range(n):
            for j in range(n):
                if i != j:
                    vc = sig.create_pvc(names[i], names[j])
                    stacks[i].ip.adapter.register_vc(names[j], vc)
                    stacks[j].ip.adapter.add_rx_vc(vc)
        for i in range(n):
            for j in range(n):
                if i != j:
                    cluster.hsm_vcs[(i, j)] = sig.create_pvc(
                        names[i], names[j])
    elif bp.mesh == "interleaved":
        for i, src in enumerate(names):
            for j, dst in enumerate(names):
                if i != j:
                    vc = sig.create_pvc(src, dst)
                    stacks[i].ip.adapter.register_vc(dst, vc)
                    stacks[j].ip.adapter.add_rx_vc(vc)
                    cluster.hsm_vcs[(i, j)] = sig.create_pvc(src, dst)
    elif bp.mesh == "hsm-only":
        for i in range(n):
            for j in range(n):
                if i != j:
                    cluster.hsm_vcs[(i, j)] = sig.create_pvc(
                        names[i], names[j])
    if bp.preconnect:
        cluster.preestablish_tcp_mesh()
    return cluster


# --------------------------------------------------------------------------
# materialize: partial (per-shard) replay
# --------------------------------------------------------------------------

def _shadow_graph(bp: TopologyBlueprint) -> nx.Graph:
    """A name-keyed replica of the fabric graph with identical node/edge
    insertion order and weights, so single-source shortest paths (and
    their Dijkstra tie-breaks) agree with the real fabric's."""
    g = nx.Graph()
    for item in bp.items:
        if isinstance(item, SwitchItem):
            g.add_node(item.name)
        elif isinstance(item, TrunkItem):
            g.add_edge(item.a, item.b,
                       weight=item.spec.prop_delay_s + 1e-9,
                       link=(f"{item.a}--{item.b}", item.a))
        elif item.switch is not None:
            g.add_node(item.name)
            g.add_edge(item.name, item.switch,
                       weight=item.link_spec.prop_delay_s + 1e-9,
                       link=(f"{item.name}--{item.switch}", item.name))
    return g


def _materialize_partial(bp: TopologyBlueprint, owned: frozenset):
    from ..atm import AtmFabric, AtmSwitch, SignalingController
    from ..atm.signaling import FIRST_USER_VCI, VirtualChannel
    from .topology import Cluster

    if bp.host_rail != "atm" or bp.lan is not None:
        raise ValueError(
            f"partial materialization requires a pure ATM-rail topology "
            f"without a shared LAN; {bp.medium!r} has "
            f"host_rail={bp.host_rail!r}, lan={bp.lan is not None}")
    all_switches = {it.name for it in bp.items if isinstance(it, SwitchItem)}
    unknown = owned - all_switches
    if unknown:
        raise ValueError(f"owned_switches names unknown switches: "
                         f"{sorted(unknown)}")

    sim, rngs, tracer, _lan = _fresh_universe(bp)
    fabric = AtmFabric(sim)
    switches: dict[str, Any] = {}        # owned, real
    stubs: dict[str, _StubSwitch] = {}   # foreign, at a cut
    stacks: list[Any] = []
    owned_hosts: set[str] = set()
    for item in bp.items:
        if isinstance(item, SwitchItem):
            if item.name in owned:
                switches[item.name] = fabric.add_switch(AtmSwitch(
                    sim, item.name, switching_latency_s=item.latency_s))
            else:
                stubs[item.name] = _StubSwitch(item.name)
        elif isinstance(item, TrunkItem):
            if item.a in owned or item.b in owned:
                na = switches.get(item.a) or stubs[item.a]
                nb = switches.get(item.b) or stubs[item.b]
                fabric.connect(na, nb, item.spec)
        elif item.switch in owned:
            stacks.append(_build_host(bp, sim, rngs, tracer, None, fabric,
                                      switches, item))
            owned_hosts.add(item.name)
        else:
            stacks.append(GhostStack(item.name, item.pid))
    sig = SignalingController(fabric)
    cluster = Cluster(sim=sim, rngs=rngs, tracer=tracer, stacks=stacks,
                      medium=bp.medium, fabric=fabric, signaling=sig)
    _replay_mesh(bp, cluster, owned, owned_hosts, FIRST_USER_VCI,
                 VirtualChannel)
    if bp.preconnect:
        names = [s.host.name for s in stacks]
        for i, stack in enumerate(stacks):
            if getattr(stack, "ghost", False):
                continue
            for j, dst in enumerate(names):
                if i != j:
                    stack.tcp.connection(dst).established = True
    return cluster


def _replay_mesh(bp, cluster, owned, owned_hosts, first_vci, vc_cls) -> None:
    """Replay the global PVC mesh over the shadow graph.

    Every (src, dst) pair advances the VCI allocators and the ``vc_id``
    sequence exactly as ``create_pvc`` would in the full universe; only
    pairs that touch this shard (endpoint or transit switch) leave state
    behind: switch table entries, ``open_vcs`` registrations, classical
    IP wiring on owned endpoints, and ``hsm_vcs`` rows.
    """
    sig = cluster.signaling
    stacks = cluster.stacks
    names = [s.host.name for s in stacks]
    n = len(names)
    shadow = _shadow_graph(bp)

    # directed channel name -> materialized channel object
    channels: dict[str, Any] = {}
    for _a, _b, data in cluster.fabric.graph.edges(data=True):
        link = data["link"]
        channels[link.fwd.name] = link.fwd
        channels[link.rev.name] = link.rev

    next_vci: dict[str, int] = {}        # directed channel name -> next VCI
    vc_seq = 0
    stub_adapters: dict[str, _StubAdapter] = {}
    adapters = cluster.fabric.adapters
    # the mesh iterates src-major: cache one source's single-source
    # shortest paths at a time (a full cache is O(n² · path) memory,
    # which would defeat memory-proportional workers)
    path_cache: dict[str, Any] = {"src": None, "paths": None}

    def paths_from(src_name):
        if path_cache["src"] != src_name:
            path_cache["src"] = src_name
            path_cache["paths"] = nx.shortest_path(
                shadow, src_name, weight="weight")
        return path_cache["paths"]

    def endpoint(host_name):
        ad = adapters.get(host_name)
        if ad is None:
            ad = stub_adapters.get(host_name)
            if ad is None:
                ad = stub_adapters[host_name] = _StubAdapter(host_name)
        return ad

    def replay_pair(src, dst):
        """One ``create_pvc(src, dst)`` replayed; returns the VC if the
        pair touches this shard, else ``None``."""
        nonlocal vc_seq
        node_path = paths_from(src)[dst]
        hop_names = []
        for u, v in pairwise(node_path):
            lname, start = shadow.edges[u, v]["link"]
            hop_names.append(lname + (">" if start == u else "<"))
        vcis = []
        for hn in hop_names:
            nxt = next_vci.get(hn, first_vci)
            next_vci[hn] = nxt + 1
            vcis.append(nxt)
        vc_seq += 1
        interior = node_path[1:-1]
        src_owned = src in owned_hosts
        dst_owned = dst in owned_hosts
        if not (src_owned or dst_owned
                or any(sw in owned for sw in interior)):
            return None
        for k, swn in enumerate(interior):
            sw = cluster.fabric.switches.get(swn)
            if sw is not None:
                sw.program(channels[hop_names[k]], vcis[k],
                           channels[hop_names[k + 1]], vcis[k + 1])
        if src_owned or dst_owned:
            vc = vc_cls(
                vc_id=vc_seq, src=endpoint(src), dst=endpoint(dst),
                src_vci=vcis[0],
                hops=[channels[hn] for hn in hop_names if hn in channels],
                hop_vcis=vcis)
        else:
            vc = _TransitVc(vc_seq)
        sig.open_vcs[vc.vc_id] = vc
        return vc

    def classical(i, j, vc):
        if vc is None:
            return
        if names[i] in owned_hosts:
            stacks[i].ip.adapter.register_vc(names[j], vc)
        if names[j] in owned_hosts:
            stacks[j].ip.adapter.add_rx_vc(vc)

    def hsm(i, j, vc):
        if vc is not None and (names[i] in owned_hosts
                               or names[j] in owned_hosts):
            cluster.hsm_vcs[(i, j)] = vc

    if bp.mesh == "separate":
        for i in range(n):
            for j in range(n):
                if i != j:
                    classical(i, j, replay_pair(names[i], names[j]))
        for i in range(n):
            for j in range(n):
                if i != j:
                    hsm(i, j, replay_pair(names[i], names[j]))
    elif bp.mesh == "interleaved":
        for i in range(n):
            for j in range(n):
                if i != j:
                    classical(i, j, replay_pair(names[i], names[j]))
                    hsm(i, j, replay_pair(names[i], names[j]))
    elif bp.mesh == "hsm-only":
        for i in range(n):
            for j in range(n):
                if i != j:
                    hsm(i, j, replay_pair(names[i], names[j]))

    # leave the signaling allocators exactly where the full universe's
    # would be, so any runtime VC setup stays globally consistent
    sig._vc_seq = vc_seq
    for hn, ch in channels.items():
        if hn in next_vci:
            sig._next_vci[id(ch)] = next_vci[hn]


# --------------------------------------------------------------------------
# PlanView: duck-typed Cluster facade for plan_shards
# --------------------------------------------------------------------------

class _BpNamed:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class _BpAdapter:
    __slots__ = ("host_name",)

    def __init__(self, host_name: str):
        self.host_name = host_name


class _BpChannel:
    __slots__ = ("name", "endpoint", "spec", "_rng")

    def __init__(self, name, endpoint, spec, rng):
        self.name = name
        self.endpoint = endpoint
        self.spec = spec
        self._rng = rng


class _BpLink:
    __slots__ = ("fwd", "rev")

    def __init__(self, fwd, rev):
        self.fwd = fwd
        self.rev = rev


class _BpFabric:
    """Fabric facade: same adapters/switches/graph shape, fake nodes."""

    def __init__(self):
        self.graph = nx.Graph()
        self.adapters: dict[str, _BpAdapter] = {}
        self.switches: dict[str, _BpNamed] = {}


#: stands in for a host link's shared error rng (plan_shards only
#: checks ``_rng is not None``)
_RNG_SENTINEL = object()


class PlanView:
    """Enough of the ``Cluster`` surface for ``plan_shards`` to partition
    a blueprint without building anything: host names in pid order, a
    fake fabric graph with real link specs and channel names, and the
    LAN marker.  Plans computed here are identical to plans computed
    from the materialized cluster (same names, same specs, same
    neighborhoods)."""

    def __init__(self, bp: TopologyBlueprint):
        self.lan = object() if bp.lan is not None else None
        self._hosts: list[_BpNamed] = []
        fabric = _BpFabric() if bp.host_rail != "ethernet" else None

        def connect(a, b, a_name, b_name, spec, rng):
            base = f"{a_name}--{b_name}"
            link = _BpLink(_BpChannel(f"{base}>", b, spec, rng),
                           _BpChannel(f"{base}<", a, spec, rng))
            fabric.graph.add_edge(a, b, link=link,
                                  weight=spec.prop_delay_s + 1e-9)

        for item in bp.items:
            if isinstance(item, SwitchItem):
                sw = _BpNamed(item.name)
                fabric.switches[item.name] = sw
                fabric.graph.add_node(sw)
            elif isinstance(item, TrunkItem):
                connect(fabric.switches[item.a], fabric.switches[item.b],
                        item.a, item.b, item.spec, None)
            else:
                self._hosts.append(_BpNamed(item.name))
                if fabric is not None:
                    ad = _BpAdapter(item.name)
                    fabric.adapters[item.name] = ad
                    fabric.graph.add_node(ad)
                    if item.switch is not None:
                        connect(ad, fabric.switches[item.switch],
                                item.name, item.switch, item.link_spec,
                                _RNG_SENTINEL)
        self.fabric = fabric
        self.n_hosts = len(self._hosts)

    def host(self, pid: int) -> _BpNamed:
        return self._hosts[pid]


# --------------------------------------------------------------------------
# registered blueprint builders (mirror the TOPOLOGIES signatures)
# --------------------------------------------------------------------------

def _host_items(n_hosts, switch, link_spec, start_pid=0, site=None,
                name=None):
    return tuple(
        HostItem(name=(name(i) if name else f"n{i}"), pid=start_pid + i,
                 site=site, switch=switch, link_spec=link_spec)
        for i in range(n_hosts))


@BLUEPRINTS.register(
    "ethernet", help="N workstations on one shared 10 Mbps Ethernet (§2)")
def blueprint_ethernet(n_hosts: int,
                       params: HostParams = SUN_ELC,
                       tcp_params=None,
                       seed: int = 1995,
                       trace: bool = False,
                       metrics: bool = True,
                       collisions: bool = False,
                       bandwidth_bps: float = 10e6,
                       preconnect: bool = True) -> TopologyBlueprint:
    """Blueprint twin of :func:`repro.net.topology.build_ethernet_cluster`."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    return TopologyBlueprint(
        medium="ethernet", seed=seed, trace=trace, metrics=metrics,
        params=params, tcp_params=tcp_params, train_cells=256,
        preconnect=preconnect, host_rail="ethernet", mesh="none",
        lan=LanItem(bandwidth_bps=bandwidth_bps, collisions=collisions),
        items=_host_items(n_hosts, None, None))


@BLUEPRINTS.register(
    "atm-lan", help="N workstations star-wired to a FORE switch (§2)")
def blueprint_atm_lan(n_hosts: int,
                      params: HostParams = SUN_IPX,
                      tcp_params=None,
                      seed: int = 1995,
                      trace: bool = False,
                      metrics: bool = True,
                      link_spec: LinkSpec = TAXI_140,
                      switch_latency_s: float = 10e-6,
                      train_cells: int = 256,
                      preconnect: bool = True) -> TopologyBlueprint:
    """Blueprint twin of :func:`repro.net.topology.build_atm_cluster`."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    items = ((SwitchItem("fore-sw", latency_s=switch_latency_s),)
             + _host_items(n_hosts, "fore-sw", link_spec))
    return TopologyBlueprint(
        medium="atm-lan", seed=seed, trace=trace, metrics=metrics,
        params=params, tcp_params=tcp_params, train_cells=train_cells,
        preconnect=preconnect, host_rail="atm", mesh="separate",
        items=items)


@BLUEPRINTS.register(
    "atm-dual",
    help="ATM fabric for HSM + separate Ethernet for NSM/TCP (dual-rail)")
def blueprint_atm_dual(n_hosts: int,
                       params: HostParams = SUN_IPX,
                       tcp_params=None,
                       seed: int = 1995,
                       trace: bool = False,
                       metrics: bool = True,
                       link_spec: LinkSpec = TAXI_140,
                       switch_latency_s: float = 10e-6,
                       train_cells: int = 256,
                       bandwidth_bps: float = 10e6,
                       collisions: bool = False,
                       preconnect: bool = True) -> TopologyBlueprint:
    """Blueprint twin of :func:`repro.net.topology.build_atm_dual_cluster`."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    items = ((SwitchItem("fore-sw", latency_s=switch_latency_s),)
             + _host_items(n_hosts, "fore-sw", link_spec))
    return TopologyBlueprint(
        medium="atm-dual", seed=seed, trace=trace, metrics=metrics,
        params=params, tcp_params=tcp_params, train_cells=train_cells,
        preconnect=preconnect, host_rail="dual", mesh="hsm-only",
        lan=LanItem(bandwidth_bps=bandwidth_bps, collisions=collisions),
        items=items)


def _blueprint_nynet_sites(sites, params, tcp_params, seed, trace, metrics,
                           train_cells, preconnect) -> TopologyBlueprint:
    """Shared body for the NYNET blueprints (Fig 1 shape)."""
    if not sites or all(s.n_hosts == 0 for s in sites):
        raise ValueError("need at least one site with hosts")
    if len({s.name for s in sites}) != len(sites):
        raise ValueError("site names must be unique")
    items: list[Any] = [
        SwitchItem("bb-upstate"), SwitchItem("bb-downstate"),
        TrunkItem("bb-upstate", "bb-downstate", DS3, cut_eligible=True),
    ]
    pid = 0
    for site in sites:
        swn = f"sw-{site.name}"
        backbone = ("bb-upstate" if site.region == "upstate"
                    else "bb-downstate")
        items.append(SwitchItem(swn, site=site.name))
        items.append(TrunkItem(swn, backbone, OC3, cut_eligible=True))
        for k in range(site.n_hosts):
            items.append(HostItem(name=f"{site.name}{k}", pid=pid,
                                  site=site.name, switch=swn,
                                  link_spec=TAXI_140))
            pid += 1
    return TopologyBlueprint(
        medium="nynet", seed=seed, trace=trace, metrics=metrics,
        params=params, tcp_params=tcp_params, train_cells=train_cells,
        preconnect=preconnect, host_rail="atm", mesh="interleaved",
        items=tuple(items))


@BLUEPRINTS.register(
    "nynet-testbed",
    help="Two-region NYNET: upstate + downstate sites over the DS-3 (Fig 1)")
def blueprint_nynet_testbed(n_upstate: int = 4, n_downstate: int = 2,
                            **kw) -> TopologyBlueprint:
    """Blueprint twin of :func:`repro.net.nynet.nynet_testbed`."""
    from .nynet import SiteSpec
    return blueprint_nynet([
        SiteSpec("syr", n_upstate, "upstate"),
        SiteSpec("nyc", n_downstate, "downstate"),
    ], **kw)


@BLUEPRINTS.register(
    "nynet", help="The Fig 1 NYNET WAN from declarative site tables")
def blueprint_nynet(sites: list,
                    params: HostParams = SUN_IPX,
                    tcp_params=None,
                    seed: int = 1995,
                    trace: bool = False,
                    metrics: bool = True,
                    train_cells: int = 256,
                    preconnect: bool = True) -> TopologyBlueprint:
    """Blueprint twin of :func:`repro.net.nynet.build_nynet_from_spec`."""
    from .nynet import SiteSpec
    site_specs = []
    for i, site in enumerate(sites):
        if isinstance(site, SiteSpec):
            site_specs.append(site)
        elif isinstance(site, dict):
            try:
                site_specs.append(SiteSpec(**site))
            except TypeError as e:
                raise ValueError(
                    f"cluster.options.sites[{i}]: {e}; expected keys "
                    "name, n_hosts, region") from None
        else:
            raise ValueError(
                f"cluster.options.sites[{i}]: expected a table, "
                f"got {site!r}")
    return _blueprint_nynet_sites(site_specs, params, tcp_params, seed,
                                  trace, metrics, train_cells, preconnect)


@BLUEPRINTS.register(
    "wan-ring",
    help="N site switches in a DS-3 ring, one shardable site per switch")
def blueprint_wan_ring(n_sites: int = 8,
                       hosts_per_site: int = 1,
                       params: HostParams = SUN_IPX,
                       tcp_params=None,
                       seed: int = 1995,
                       trace: bool = False,
                       metrics: bool = True,
                       train_cells: int = 256,
                       preconnect: bool = True) -> TopologyBlueprint:
    """Blueprint twin of :func:`repro.net.nynet.build_wan_ring`."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if hosts_per_site < 1:
        raise ValueError("hosts_per_site must be >= 1")
    items: list[Any] = [SwitchItem(f"sw-r{i}", site=f"r{i}")
                        for i in range(n_sites)]
    if n_sites == 2:            # a 2-ring would double the single trunk
        items.append(TrunkItem("sw-r0", "sw-r1", DS3, cut_eligible=True))
    elif n_sites > 2:
        for i in range(n_sites):
            items.append(TrunkItem(f"sw-r{i}", f"sw-r{(i + 1) % n_sites}",
                                   DS3, cut_eligible=True))
    pid = 0
    for i in range(n_sites):
        for k in range(hosts_per_site):
            items.append(HostItem(name=f"r{i}h{k}", pid=pid, site=f"r{i}",
                                  switch=f"sw-r{i}", link_spec=TAXI_140))
            pid += 1
    return TopologyBlueprint(
        medium="wan-ring", seed=seed, trace=trace, metrics=metrics,
        params=params, tcp_params=tcp_params, train_cells=train_cells,
        preconnect=preconnect, host_rail="atm", mesh="interleaved",
        items=tuple(items))
