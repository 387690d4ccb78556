"""Seeded twisted diagrams shared by the test modules."""

from skein.diagrams import GraphDiagram, parse_diagram


def twisted(rng, text, crossings):
    """``text`` with ``crossings`` seeded half twists, each of two edges that
    leave one vertex at neighbouring slots (a local, planar change)."""
    g = parse_diagram(text)
    vertices = [list(v) for v in g.vertices]
    twists = []
    label = max(g.arc_labels()) + 1
    for _ in range(crossings):
        slots = rng.choice(vertices)
        k = rng.randrange(len(slots))
        k2 = (k + 1) % len(slots)
        right, left = slots[k], slots[k2]
        slots[k], slots[k2] = label, label + 1
        # counterclockwise: new right end, old right, old left, new left end;
        # rotating the slots by one gives the mirror twist
        twist = (label, right, left, label + 1)
        twists.append(twist if rng.random() < 0.5 else twist[1:] + twist[:1])
        label += 2
    return GraphDiagram(vertices, twists)
