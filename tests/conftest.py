"""One hypothesis profile for the whole suite: the same examples every run."""

from hypothesis import settings

settings.register_profile("obskit", derandomize=True, deadline=None)
settings.load_profile("obskit")
