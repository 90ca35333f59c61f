import types

import qss


def test_all_names_no_module():
    """`from qss import *` binds the public functions, classes and
    exceptions, and none of the submodules they come from."""
    assert qss.__all__
    assert not [name for name in qss.__all__
                if isinstance(getattr(qss, name), types.ModuleType)]
    names = {}
    exec("from qss import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(qss.__all__)
