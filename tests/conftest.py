from hypothesis import settings

# A failing example prints the blob that replays it (``@reproduce_failure``);
# every other setting keeps Hypothesis's default.
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")
