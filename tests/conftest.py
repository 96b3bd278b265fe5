import numpy as np
import pytest

ITERATE_DAMAGE = ("empty", "truncated", "not an npy", "unbalanced header", "object dtype",
                  "float32", "fortran order", "two axes", "wrong first axis", "K off by one")


def damage_iterates(path, case):
    """Damage the intact iterate file ``path`` of a trace as ``case`` names,
    and return the message that read_csv gives for it."""
    a = np.load(path)
    rows = a.shape[1]
    want = f"want (3, {rows}, d) for the CSV's {rows} rows"
    if case == "empty":
        path.write_bytes(b"")
        tail = "not an .npy array: EOF: reading magic string, expected 8 bytes got 0"
    elif case == "truncated":
        path.write_bytes(path.read_bytes()[:-8])
        tail = f"{a.nbytes - 8} data bytes, want {a.nbytes} for shape {a.shape}"
    elif case == "not an npy":
        path.write_bytes(b"k,eta\r\n0,1\r\n")
        tail = ("not an .npy array: the magic string is not correct; "
                "expected b'\\x93NUMPY', got b'k,eta\\r'")
    elif case == "unbalanced header":
        # an extra "(" before the shape, one pad byte dropped to keep the length
        data = path.read_bytes()
        i, end = data.index(b"(3"), data.index(b"\n")
        path.write_bytes(data[:i] + b"(" + data[i:end - 1] + data[end:])
        tail = "not an .npy array: ('EOF in multi-line statement', (2, 0))"
    elif case == "object dtype":
        np.save(path, a.astype(object), allow_pickle=True)
        tail = "dtype |O, want <f8"
    elif case == "float32":
        np.save(path, a.astype(np.float32))
        tail = "dtype <f4, want <f8"
    elif case == "fortran order":
        np.save(path, np.asfortranarray(a))
        tail = "Fortran order, want C order"
    elif case == "two axes":
        np.save(path, a[0])
        tail = f"shape {a[0].shape}, {want}"
    elif case == "wrong first axis":
        np.save(path, a[:2])
        tail = f"shape {a[:2].shape}, {want}"
    elif case == "K off by one":
        np.save(path, a[:, 1:])
        tail = f"shape {a[:, 1:].shape}, {want}"
    return f"{path}: {tail}"


@pytest.fixture(params=ITERATE_DAMAGE)
def iterate_damage(request):
    """A function that damages an intact iterate file, one way per parameter,
    and returns read_csv's message for it."""
    return lambda path: damage_iterates(path, request.param)
