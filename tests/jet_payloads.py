"""The JSON form of a jet over the smooth base, the payload that --jets
reads (corpus.jet_from_dict): tests write their payloads from built jets."""


def jet_to_dict(f) -> dict:
    return {
        "src": {"carrier_dim": f.src.monoid.carrier.dim, "point_dim": f.src.point.dim},
        "dst": {"carrier_dim": f.dst.monoid.carrier.dim, "point_dim": f.dst.point.dim},
        "order": f.order,
        "star": str(f.star),
        "derivs": [str(d) for d in f.derivs],
    }
