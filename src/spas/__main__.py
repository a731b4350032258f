from spas.cli import run

if __name__ == "__main__":
    run()
