from geoprofile.report import dumps_deterministic


def test_dumps_deterministic_literal():
    """Rows of finite floats, NaN, infinities, bools, ints, an empty list,
    a nested dict and a quoted string in their fixed layout."""
    payload = {"grid": [[0.1, 1.5, -2.0], [1e-300, 2.5e16, 3.0]],
               "mixed": [1.0, float("nan"), float("inf"), float("-inf"),
                         True, 3],
               "floats_and_int": [0.5, 2],
               "empty": [],
               "nested": {"ok": False, "n": 7, "name": 'a"b'}}
    assert dumps_deterministic(payload) == (
        '{\n'
        '  "grid": [[0.10000000000000001, 1.5, -2], '
        '[1e-300, 25000000000000000, 3]],\n'
        '  "mixed": [1, "nan", "inf", "-inf", true, 3],\n'
        '  "floats_and_int": [0.5, 2],\n'
        '  "empty": [],\n'
        '  "nested": {\n'
        '    "ok": false,\n'
        '    "n": 7,\n'
        '    "name": "a\\"b"\n'
        '  }\n'
        '}\n')
