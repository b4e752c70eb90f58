from hypothesis import settings

# a longer search, 1000 examples per property test, for three selections:
# the writer's equality with the compact json.dumps(data, sort_keys=True),
# pytest tests/test_serialize.py -k json_dumps --hypothesis-profile=long
# the cover reader's round trip and fault messages,
# pytest tests/test_serialize.py -k "reader_property or reader_rejects" --hypothesis-profile=long
# and the count table, the property check and the cell-table a-strong
# judge against their reference loops, on one-byte and wider tables and
# on both sides of the packed byte-code tally's boundary, and a cover
# circuit's forms against their dicts,
# pytest tests/test_reference_paths.py -k "counts or cover_coefficients or cell_table or packed_tally or part_form" --hypothesis-profile=long
settings.register_profile("long", max_examples=1000, deadline=None)
