"""Sites and latency topologies."""


class Site:
    """A network endpoint that can receive messages.

    Subclasses (the data server, client sites) override :meth:`receive`.
    A site learns its identity and transport when attached to a
    :class:`~repro.network.transport.Network`.
    """

    def __init__(self, site_id):
        self.site_id = site_id
        self.network = None

    def attach(self, network):
        """Called by the network when the site is registered."""
        self.network = network

    def send(self, dst, payload, size=1.0):
        """Convenience wrapper around ``network.send`` from this site."""
        if self.network is None:
            raise RuntimeError(f"site {self.site_id} is not attached to a network")
        return self.network.send(self.site_id, dst, payload, size=size)

    def receive(self, envelope):
        """Handle a delivered envelope. Subclasses must override."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} id={self.site_id}>"


class UniformTopology:
    """The paper's model: one latency between every pair, both directions."""

    def __init__(self, latency):
        if latency < 0:
            raise ValueError(f"negative latency {latency!r}")
        self.base_latency = latency

    def latency(self, src, dst):
        """Propagation + switching delay from ``src`` to ``dst``."""
        if src == dst:
            return 0.0
        return self.base_latency

    def __repr__(self):
        return f"UniformTopology(latency={self.base_latency})"


class RegionTopology:
    """Geo-distributed deployments: sites grouped into regions.

    Two latency tiers, modeled on the CockroachDB multi-region worked
    examples (NYC/SF): sites in the same region are one LAN hop apart
    (``intra_latency``, ~1 unit), sites in different regions pay the WAN
    round (``inter_latency``, ~100-750 units). ``region_of`` maps a site
    id to its region index; sites absent from the map are treated as
    being in their own private region (always inter-region).
    """

    def __init__(self, region_of, intra_latency=1.0, inter_latency=100.0):
        if intra_latency < 0:
            raise ValueError(f"negative intra-region latency {intra_latency!r}")
        if inter_latency < 0:
            raise ValueError(f"negative inter-region latency {inter_latency!r}")
        self.region_of = dict(region_of)
        self.intra_latency = intra_latency
        self.inter_latency = inter_latency

    def latency(self, src, dst):
        if src == dst:
            return 0.0
        src_region = self.region_of.get(src)
        dst_region = self.region_of.get(dst)
        if src_region is not None and src_region == dst_region:
            return self.intra_latency
        return self.inter_latency

    def __repr__(self):
        n_regions = len(set(self.region_of.values()))
        return (f"RegionTopology({len(self.region_of)} sites, "
                f"{n_regions} regions, intra={self.intra_latency}, "
                f"inter={self.inter_latency})")
