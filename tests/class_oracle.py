"""A brute-force class oracle for tiny boxes, independent of the census
engine and of the canonical-representative theory: the tests compare the
census records against it."""

from quartic_census.forms import BinQuartForm, FamilyCoords, disc_quartic


_GEN_MATRICES = (
    (1, 1, 0, 1),
    (1, -1, 0, 1),
    (0, 1, 1, 0),
    (1, 0, 0, -1),
)


def _act_tuple(co, T):
    from quartic_census.forms import GL2Mat, act_quartic

    return act_quartic(BinQuartForm(*co), GL2Mat(*T)).coeffs()


def brute_force_class_oracle(height: int) -> list[dict]:
    """Ground-truth class list for tiny boxes: orbits of family forms with
    coefficients bounded by `height`, grouped by generator BFS over forms
    with coefficients bounded by 3 * height.

    Returns one entry per class: representative family coordinates, Galois
    tag, conductor, disc and r2, with cross-member consistency asserted.
    Only classes meeting the three families are produced (the census never
    needs the others); grouping is BFS over GL2(Z) generators, independent of
    the canonical-representative theory.
    """
    from quartic_census.classify import family_real_signature, galois_tag
    from quartic_census.forms import family_membership, from_form, to_form
    from quartic_census.maximality import is_maximal
    from quartic_census.resolvent import conductor_poly

    cap = 3 * height
    seeds = []
    for fam in (1, 2, 3):
        for A in range(-height, height + 1):
            for B in range(-height, height + 1):
                for C in range(-height, height + 1):
                    co = to_form(FamilyCoords(fam, A, B, C))
                    if max(abs(v) for v in co.coeffs()) > height:
                        continue
                    if A != 0 and disc_quartic(co) != 0:
                        seeds.append(co.coeffs())
    seen: dict[tuple, int] = {}
    classes = []
    for seed in seeds:
        if seed in seen:
            continue
        orbit_id = len(classes)
        stack = [seed]
        members = []
        while stack:
            f = stack.pop()
            if f in seen:
                continue
            seen[f] = orbit_id
            members.append(f)
            for T in _GEN_MATRICES:
                g = _act_tuple(f, T)
                if max(abs(v) for v in g) <= cap and g not in seen:
                    stack.append(g)
        infos = []
        for f in members:
            F = BinQuartForm(*f)
            for fam in sorted(family_membership(F)):
                c = from_form(F, fam)
                if c.A == 0:
                    continue
                infos.append(
                    {
                        "family": fam,
                        "coords": c,
                        "tag": galois_tag(c).value,
                        "conductor": conductor_poly(c),
                        "disc": disc_quartic(F),
                        "r2": family_real_signature(c).r2,
                        "maximal": is_maximal(c).is_maximal,
                    }
                )
        if not infos:
            classes.append(None)
            continue
        tags = {i["tag"] for i in infos}
        discs = {i["disc"] for i in infos}
        maxs = {i["maximal"] for i in infos}
        assert len(tags) == 1 and len(discs) == 1 and len(maxs) == 1, infos
        conds = {abs(i["conductor"]) for i in infos}
        if infos[0]["tag"] in ("d4", "c4"):
            # the invariant conductor needs the distinguished J, which is
            # unique only outside the Klein case
            assert len(conds) == 1, infos
        classes.append(
            {
                "members": [i["coords"] for i in infos],
                "tag": infos[0]["tag"],
                "conductor": infos[0]["conductor"] if len(conds) == 1 else None,
                "disc": infos[0]["disc"],
                "r2": infos[0]["r2"],
                "maximal": infos[0]["maximal"],
            }
        )
    return [c for c in classes if c is not None]
