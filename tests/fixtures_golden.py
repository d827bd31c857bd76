"""The pinned golden shape, shared by tests/test_golden.py and
scripts/regen_golden.py, plus the canonical selection and
Speedchecker-study digests.
"""

from __future__ import annotations

import hashlib
import json

#: The pinned campaign shape.
SEED = 11
SCALE = 0.05
REGION = "us-west1"
BUDGET_SERVERS = 8
DAYS = 2


def selection_digest(selection) -> str:
    """sha256 over everything a topology pilot scan decided.

    Covers the ordered ``selected`` list, every traced server's
    matched far-side IP and pilot RTT (in trace order), and every
    bdrmap link.  The dataset digest sees only the servers inside the
    deployment budget; this one sees the whole scan.
    """
    canonical = {
        "selected": [[s.server_id, s.far_ip, s.neighbor_asn,
                      s.as_path_length, s.rtt_ms]
                     for s in selection.selected],
        "server_links": list(selection.server_links.items()),
        "server_rtts": list(selection.server_rtts.items()),
        "bdrmap_links": [[link.far_ip, link.near_ip, link.neighbor_asn,
                          link.n_traces, link.via_alias]
                         for link in selection.bdrmap.links.values()],
    }
    text = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def speedchecker_digest(medians) -> str:
    """sha256 over the ordered :class:`TupleMedian` list of a study.

    Every field of every tuple, in study order, so a reordered draw,
    a changed sample count or one ULP on a median all show.
    """
    canonical = [[m.asn, m.city_key, m.region, m.tier.value,
                  m.median_rtt_ms, m.n_samples] for m in medians]
    text = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
