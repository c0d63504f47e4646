import numpy as np

from esbmix.analytics import enumerate_partitions


def bell_triangle(kmax):
    """Independent Bell-number oracle."""
    row = [1]
    out = [1]
    for _ in range(kmax):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        out.append(row[0])
    return out


def test_counts_match_bell_triangle():
    oracle = bell_triangle(12)
    for k in range(1, 11):
        assert sum(1 for _ in enumerate_partitions(k)) == oracle[k]
    assert oracle[10] == 115975
    assert oracle[12] == 4213597


def test_k3_by_brute_force_dedup():
    seen = set()
    for labels in np.ndindex(3, 3, 3):
        canon, remap = [], {}
        for l in labels:
            if l not in remap:
                remap[l] = len(remap)
            canon.append(remap[l])
        seen.add(tuple(canon))
    assert sum(1 for _ in enumerate_partitions(3)) == len(seen) == 5


def test_first_and_last_in_rgs_order():
    parts = list(enumerate_partitions(4))
    assert parts[0] == ((1, 2, 3, 4),)
    assert parts[-1] == ((1,), (2,), (3,), (4,))
    # strictly increasing restricted growth strings
    def rgs(p):
        out = [0] * 4
        for bi, block in enumerate(p):
            for i in block:
                out[i - 1] = bi
        return tuple(out)

    strings = [rgs(p) for p in parts]
    assert strings == sorted(strings)
    assert len(set(strings)) == len(strings)


def test_every_emitted_partition_is_valid():
    # nonempty sorted blocks, ordered by least element, that tile {1..k}
    for k in range(1, 8):
        for p in enumerate_partitions(k):
            assert all(block and list(block) == sorted(block) for block in p)
            assert [block[0] for block in p] == sorted(block[0] for block in p)
            assert sorted(i for block in p for i in block) == list(range(1, k + 1))
