import pytest


@pytest.fixture(scope="session", autouse=True)
def no_tensor_cache(tmp_path_factory):
    """Point the CLI's tensor cache under a regular file, for in-process runs
    and every child process alike, so no entry can be read or stored: every
    run parses its input, and no test reads or fills the user's own cache.
    A test of the cache sets its own `XDG_CACHE_HOME`. Session scope:
    hypothesis `@given` tests refuse function-scoped fixtures."""
    blocker = tmp_path_factory.mktemp("no-cache") / "a-file"
    blocker.write_text("the tensor cache cannot be made under a file\n", encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
        yield
