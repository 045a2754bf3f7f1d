def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        help="rewrite the files under tests/golden/ from the current CLI outputs",
    )
